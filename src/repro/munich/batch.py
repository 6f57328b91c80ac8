"""Batched MUNICH convolution: stacked candidate blocks on a shared bin grid.

:func:`~repro.munich.exact.convolved_probability` evaluates one ``(q, c)``
pair by convolving ``n`` per-timestamp histograms over the full
``n_bins``-wide grid — hundreds of small NumPy calls per pair, repeated
for every undecided candidate of a profile.  The batched evaluator here
answers a whole block of candidates against one query in a single stacked
pass, and restructures the DP itself so that blocks do strictly less work
than the per-pair loop:

* **shared bin grid** — all candidates of a block share the query's
  ``δ = ε²/n_bins`` grid, so the per-timestamp squared sample differences
  of the entire ``(B, n, s_q·s_c)`` block are binned in one shot;
* **min-offset shifting** — each timestamp's smallest bin offset is a
  deterministic shift of the whole distribution; subtracting it per row
  moves the threshold instead of convolving, so timestamps whose samples
  all land in one bin cost *nothing*;
* **span compression** — after the shift, the DP state only needs
  ``min(Σ spans, max residual threshold) + 1`` bins instead of
  ``n_bins``; in bound-undecided workloads that is typically 10–100×
  narrower than the full grid;
* **span-ordered schedule** — timestamps are convolved narrowest kernel
  first, keeping the growing support (and therefore every vectorized
  multiply-add) as small as possible for as long as possible.

The computed quantity is the same integer-offset CDF the per-pair
evaluator produces — identical binning rules, identical edge handling at
``ε²`` — so results agree to accumulated float rounding (~1e-12), far
inside the engine's 1e-9 batch-kernel tolerance.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core import kernels
from ..core.errors import InvalidParameterError
from ..core.uncertain import MultisampleUncertainTimeSeries
from .exact import DEFAULT_BINS

#: Element budget for one block's ``(B, n, s_q·s_c)`` difference tensor.
BATCH_BLOCK_ELEMENTS = 1 << 20

#: Element budget for one DP chunk's ``(rows, width)`` probability state:
#: ~0.25 MB of float64 keeps the state, the update buffer, and the padded
#: window source all cache-resident (measured fastest from 2^12–2^19 at
#: both 512 and 4096 bins), which is what lets the stacked passes beat
#: the per-pair loop's L1-sized slices on memory traffic as well as call
#: overhead.
DP_CHUNK_ELEMENTS = 1 << 15

#: Element budget for one bracket block's ``(K, B, n)`` atom tensor: the
#: dozen passes of the Newton iteration stay L2-resident (measured
#: fastest near 2^16 for n = 32–64 at 9 atoms per timestamp).
BRACKET_BLOCK_ELEMENTS = 1 << 16

#: Newton steps on the Chernoff parameter λ per bracket side.  Every
#: λ >= 0 yields a valid bound, so the steps only tighten it; from the
#: Gaussian start one step already lands within 1e-4 of the optimal
#: exponent on the MUNICH benchmark inputs.
BRACKET_NEWTON_STEPS = 1

#: Relative widening of both bracket ends.  The DP sums non-negative
#: terms, so its rounding is relative (~1e-12 at worst); 1e-9 covers it
#: with three orders of magnitude to spare.
BRACKET_MARGIN = 1e-9

#: Absolute slack per unit of exponent magnitude: covers the rounding of
#: the bracket's own exponent sums before they are exponentiated.
EXPONENT_SLACK = 1e-12


def stack_candidate_samples(candidates) -> np.ndarray:
    """``(B, n, s)`` stacked sample matrices of multisample candidates.

    Raises when sample counts differ across candidates (the per-pair
    evaluator is the fallback for such ragged collections).
    """
    matrices = [
        candidate.samples
        if isinstance(candidate, MultisampleUncertainTimeSeries)
        else np.asarray(candidate, dtype=np.float64)
        for candidate in candidates
    ]
    shapes = {matrix.shape for matrix in matrices}
    if len(shapes) > 1:
        raise InvalidParameterError(
            f"candidates must share one (n, s) sample shape, got {shapes}"
        )
    return np.stack(matrices) if matrices else np.empty((0, 0, 0))


def convolved_probability_batch(
    x: MultisampleUncertainTimeSeries,
    candidate_samples: np.ndarray,
    epsilon: float,
    n_bins: int = DEFAULT_BINS,
) -> np.ndarray:
    """``Pr(L2(X, Y_b) <= ε)`` for a stacked block of candidates.

    ``candidate_samples`` is a ``(B, n, s_c)`` tensor of the candidates'
    per-timestamp sample draws (one slice of a collection's materialized
    sample tensor).  Equivalent to calling
    :func:`~repro.munich.exact.convolved_probability` per candidate with
    the same ``n_bins``; returns the ``(B,)`` probability vector.
    """
    if epsilon < 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    if n_bins < 2:
        raise InvalidParameterError(f"n_bins must be >= 2, got {n_bins}")
    candidate_samples = np.asarray(candidate_samples, dtype=np.float64)
    if candidate_samples.ndim != 3:
        raise InvalidParameterError(
            f"candidate_samples must be a (B, n, s) tensor, got shape "
            f"{candidate_samples.shape}"
        )
    n_candidates, length, _ = candidate_samples.shape
    if length != len(x):
        raise InvalidParameterError(
            f"series lengths differ: {len(x)} != {length}"
        )
    out = np.empty(n_candidates)
    per_row = max(1, length * x.samples_per_timestamp
                  * candidate_samples.shape[2])
    block = max(1, BATCH_BLOCK_ELEMENTS // per_row)
    for start in range(0, n_candidates, block):
        stop = min(start + block, n_candidates)
        out[start:stop] = _block_probabilities(
            x.samples, candidate_samples[start:stop], epsilon, n_bins
        )
    return out


def probability_brackets_batch(
    query_samples: np.ndarray,
    candidate_samples: np.ndarray,
    epsilons: np.ndarray,
    n_bins: int = DEFAULT_BINS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Admissible ``(lower, upper)`` brackets on convolved probabilities.

    Cell ``b`` pairs the ``(n, s_q)`` query draws ``query_samples[b]``
    with the ``(n, s_c)`` candidate draws ``candidate_samples[b]`` under
    threshold ``epsilons[b]``, so one call covers cells of many query
    rows.  For every cell ``lower <= P <= upper`` holds for the value
    :func:`convolved_probability_batch` returns for that pair (see
    :func:`_block_brackets`).  Cells the DP itself settles without
    convolving (certain overflow, certain fit) get their exact value at
    both ends; ``ε = 0`` cells are not bracketed (``[0, 1]``).
    ``upper`` may exceed 1 by :data:`BRACKET_MARGIN`, as the DP's own
    rounded sums may exceed 1.
    """
    query_samples = np.asarray(query_samples, dtype=np.float64)
    candidate_samples = np.asarray(candidate_samples, dtype=np.float64)
    epsilons = np.asarray(epsilons, dtype=np.float64)
    if n_bins < 2:
        raise InvalidParameterError(f"n_bins must be >= 2, got {n_bins}")
    if (
        query_samples.ndim != 3
        or candidate_samples.ndim != 3
        or query_samples.shape[:2] != candidate_samples.shape[:2]
        or epsilons.shape != query_samples.shape[:1]
    ):
        raise InvalidParameterError(
            f"need paired (B, n, s) tensors and (B,) epsilons, got "
            f"{query_samples.shape}, {candidate_samples.shape}, "
            f"{epsilons.shape}"
        )
    if np.any(epsilons < 0.0):
        raise InvalidParameterError("every epsilon must be >= 0")
    n_cells, length, s_query = query_samples.shape
    lower = np.zeros(n_cells)
    upper = np.ones(n_cells)
    cells = np.flatnonzero(epsilons > 0.0)
    per_cell = max(1, length * s_query * candidate_samples.shape[2])
    block = max(1, BRACKET_BLOCK_ELEMENTS // per_cell)
    for start in range(0, cells.size, block):
        chunk = cells[start:start + block]
        # Atom-major (K, B, n) layout: every reduction over a timestamp's
        # K atoms becomes K - 1 contiguous plane operations instead of a
        # strided reduction along a length-K innermost axis.
        differences = (
            query_samples[chunk].transpose(2, 0, 1)[:, None]
            - candidate_samples[chunk].transpose(2, 0, 1)[None, :]
        )
        values = np.square(differences).reshape(-1, chunk.size, length)
        thresholds = np.square(epsilons[chunk])[:, None]
        lower[chunk], upper[chunk] = _block_brackets(
            *_binned_residuals(values, thresholds, n_bins, atom_axis=0)
        )
    return lower, upper


def _squared_differences(
    query_samples: np.ndarray, candidate_block: np.ndarray
) -> np.ndarray:
    """``(B, n, s_q·s_c)`` squared sample differences in the per-pair
    evaluator's ``(s_q, s_c)`` row-major atom order."""
    n_rows, length, _ = candidate_block.shape
    differences = (
        query_samples[None, :, :, None] - candidate_block[:, :, None, :]
    )
    return np.square(differences).reshape(n_rows, length, -1)


def _binned_residuals(
    values: np.ndarray, squared_threshold, n_bins: int, atom_axis: int = 2
) -> Tuple[np.ndarray, np.ndarray]:
    """Bin squared differences and apply the min-offset shift.

    ``values`` holds the ``K`` atoms of each ``(B, n)`` cell-timestamp
    along ``atom_axis`` — ``(B, n, K)`` for the DP, atom-major
    ``(K, B, n)`` for the brackets.  ``squared_threshold`` is ε², a
    scalar for one query's block or per-cell thresholds broadcastable
    against ``values``.

    Returns ``(residuals, cutoffs)``: the integer atoms left after
    subtracting each timestamp's smallest offset (same layout as
    ``values``), and each cell's largest in-range residual sum.  The
    DP's probability is ``P(Σ_t R_t <= cutoff)`` with ``R_t`` uniform
    over timestamp ``t``'s ``K`` atoms — the one quantity both the
    convolution and the concentration brackets work on.
    """
    delta = squared_threshold / n_bins
    # Identical binning to the per-pair evaluator: clamp before the cast,
    # keep values exactly at ε² in range, send larger ones to overflow.
    scaled = np.minimum(values / delta, float(n_bins))
    bins = scaled.astype(np.intp)
    bins = np.where(
        values <= squared_threshold, np.minimum(bins, n_bins - 1), n_bins
    )
    # Min-offset shift: each timestamp's smallest offset is deterministic.
    minima = bins.min(axis=atom_axis)
    residuals = bins - np.expand_dims(minima, atom_axis)
    cutoffs = (n_bins - 1) - minima.sum(axis=1)
    return residuals, cutoffs


def _block_probabilities(
    query_samples: np.ndarray,
    candidate_block: np.ndarray,
    epsilon: float,
    n_bins: int,
) -> np.ndarray:
    """One bounded block of the batched convolution (see module docstring)."""
    n_rows = candidate_block.shape[0]
    values = _squared_differences(query_samples, candidate_block)
    squared_threshold = epsilon * epsilon
    if squared_threshold == 0.0:
        return np.prod((values == 0.0).mean(axis=2), axis=1)

    residuals, cutoffs = _binned_residuals(values, squared_threshold, n_bins)
    spans = residuals.max(axis=2)
    total_spans = spans.sum(axis=1)

    probabilities = np.empty(n_rows)
    # Deterministic rows: every atom combination overflows, or none can.
    probabilities[cutoffs < 0] = 0.0
    probabilities[(cutoffs >= 0) & (total_spans <= cutoffs)] = 1.0
    live = np.flatnonzero((cutoffs >= 0) & (total_spans > cutoffs))
    if live.size == 0:
        return probabilities

    n_atoms = values.shape[2]
    jit = kernels.active_backend().munich_convolution
    if jit is not None:
        # The compiled backend sizes each row's DP state individually,
        # so the width-sorted chunking below (a NumPy vectorization
        # concern) is unnecessary — one parallel call covers the block.
        probabilities[live] = jit(
            np.ascontiguousarray(residuals[live]),
            np.ascontiguousarray(cutoffs[live]),
            n_atoms,
        )
        return probabilities

    # Width-sorted chunks: rows needing similar DP state widths run
    # together, and each chunk is sized so its state stays cache-resident
    # instead of streaming a (B, n_bins) block through DRAM per pass.
    needed = np.minimum(total_spans[live], cutoffs[live])
    order = np.argsort(needed, kind="stable")
    position = 0
    while position < live.size:
        width = int(needed[order[position]]) + 1
        chunk_rows = max(4, DP_CHUNK_ELEMENTS // width)
        chunk = order[position:position + chunk_rows]
        position += chunk_rows
        rows = live[chunk]
        probabilities[rows] = _dp_chunk(
            residuals[rows], cutoffs[rows], n_atoms
        )
    return probabilities


def _dp_chunk(
    residuals: np.ndarray, cutoffs: np.ndarray, n_atoms: int
) -> np.ndarray:
    """Exact residual-sum CDF for one chunk of undecided rows.

    ``residuals`` is the ``(L, n, K)`` integer atom tensor after the
    min-offset shift; ``cutoffs[b]`` is row ``b``'s largest in-range
    residual sum.  Timestamps are convolved narrowest first, and each
    step picks the cheaper of two equivalent updates:

    * **dense kernels** — per-row histograms applied by offset, ideal
      when the timestamp's span is comparable to the atom count;
    * **atom gathers** — one shifted gather per atom rank (uniform
      weights), ideal when few atoms are spread over a wide span, where
      the dense loop would mostly multiply by zero.
    """
    n_rows = residuals.shape[0]
    block_spans = residuals.max(axis=2).max(axis=0)
    # Row b only ever needs indices up to min(Σ spans_b, cutoff_b): its
    # support cannot outgrow the former and everything past the latter is
    # certainly out of range, so the chunk width is the max of those.
    width = int(
        np.minimum(residuals.sum(axis=(1, 2)), cutoffs).max()
    ) + 1
    atom_weight = 1.0 / n_atoms
    row_offsets = np.arange(n_rows)[:, None]

    pmf = np.zeros((n_rows, 2))
    pmf[:, 0] = 1.0
    occupied = 1
    for timestamp in np.argsort(block_spans, kind="stable"):
        kernel_span = int(block_spans[timestamp])
        if kernel_span == 0:
            continue
        stride = min(kernel_span, width) + 1
        grown = min(occupied + kernel_span, width)
        # One trailing always-zero column doubles as the dump slot for
        # out-of-support gather indices.
        updated = np.zeros((n_rows, grown + 1))
        if stride <= 2 * residuals.shape[2]:
            # Dense mode: per-row kernel histograms, one shifted
            # multiply-add per offset.  An atom clipped at
            # ``stride - 1 = width`` is a certain overflow and is dropped
            # by the offset loop's bound.
            clipped = np.minimum(residuals[:, timestamp, :], stride - 1)
            kernels = np.bincount(
                (clipped + row_offsets * stride).ravel(),
                minlength=n_rows * stride,
            ).reshape(n_rows, stride) * atom_weight
            for offset in range(stride):
                span_here = min(occupied, grown - offset)
                if span_here <= 0:
                    break
                updated[:, offset:offset + span_here] += (
                    kernels[:, offset:offset + 1] * pmf[:, :span_here]
                )
        else:
            # Atom mode: every atom shifts the whole pmf by its own
            # per-row offset.  Shifts are realized as *contiguous* window
            # copies out of a zero-padded state — one row-indexed window
            # per atom rank — so the inner work is memcpy-speed instead
            # of element gathers.  Uniform atom weights let one final
            # scale close the convolution out.
            pad = stride - 1
            padded = np.zeros((n_rows, pad + grown))
            padded[:, pad:pad + occupied] = pmf[:, :occupied]
            windows = np.lib.stride_tricks.sliding_window_view(
                padded, grown, axis=1
            )
            atoms = residuals[:, timestamp, :]
            overflowing = atoms > pad
            starts = pad - np.minimum(atoms, pad)
            row_index = np.arange(n_rows)
            for rank in range(atoms.shape[1]):
                block = windows[row_index, starts[:, rank]]
                lost = overflowing[:, rank]
                if lost.any():
                    # Atoms past the state width are certain overflow;
                    # drop their (already copied-out) contribution.
                    block[lost] = 0.0
                updated[:, :grown] += block
            updated *= atom_weight
        pmf = updated
        occupied = grown
    cumulative = np.cumsum(pmf[:, :occupied], axis=1)
    return np.take_along_axis(
        cumulative, np.minimum(cutoffs, occupied - 1)[:, None], axis=1
    )[:, 0]


def _block_brackets(
    residuals: np.ndarray, cutoffs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Chernoff brackets on ``P(Σ_t R_t <= c)`` for one binned block.

    ``residuals`` is the atom-major ``(K, B, n)`` output of
    :func:`_binned_residuals`.

    With ``S = Σ_t R_t`` a sum of independent per-timestamp atoms
    (uniform over each timestamp's ``K`` residuals), for every
    ``λ >= 0``:

    * ``P(S <= c) <= exp(λc + Σ_t log mean_k e^{-λ R_tk})``;
    * ``P(S <= c) = 1 - P(S >= c + 1)
      >= 1 - exp(-λ(c+1) + Σ_t log mean_k e^{λ R_tk})``

    (``S`` is integer-valued, so ``S > c`` means ``S >= c + 1``).  Both
    exponents are convex in λ with slope ``c - E[S]`` (resp.
    ``E[S] - c - 1``) at λ = 0, so only the side whose target lies
    beyond the mean can beat the trivial bound; it alone is optimized,
    by a few vectorized Newton steps from the Gaussian start.  Both
    ends are then widened by :data:`BRACKET_MARGIN` so they contain the
    DP's rounded value (which may exceed 1 by a few ulps, so ``upper``
    may too).  Rows the DP settles without convolving get their exact
    0 or 1 at the end that is exact.
    """
    spans = residuals.max(axis=0)
    total_spans = spans.sum(axis=1)
    lower = np.zeros(cutoffs.shape)
    # Not capped at 1: the DP's rounded sum can land a few ulps above it.
    upper = np.full(cutoffs.shape, 1.0 + BRACKET_MARGIN)
    upper[cutoffs < 0] = 0.0
    lower[(cutoffs >= 0) & (total_spans <= cutoffs)] = 1.0
    live = np.flatnonzero((cutoffs >= 0) & (total_spans > cutoffs))
    if live.size == 0:
        return lower, upper
    atoms = residuals[:, live].astype(np.float64)
    spans = spans[live].astype(np.float64)
    cutoff = cutoffs[live].astype(np.float64)
    first = atoms.mean(axis=0)
    mean = first.sum(axis=1)
    variance = ((atoms * atoms).mean(axis=0) - first * first).sum(axis=1)
    # Upper end: tilt towards small sums.
    side = np.flatnonzero(cutoff < mean)
    if side.size:
        exponent = _chernoff_exponent(
            -1.0, atoms[:, side], spans[side], cutoff[side], mean[side], variance[side]
        )
        upper[live[side]] = np.exp(exponent) * (1.0 + BRACKET_MARGIN)
    # Lower end: tilt towards large sums.
    side = np.flatnonzero(cutoff + 1.0 > mean)
    if side.size:
        exponent = _chernoff_exponent(
            1.0,
            atoms[:, side],
            spans[side],
            cutoff[side] + 1.0,
            mean[side],
            variance[side],
        )
        # ``0.0 - expm1``, not ``-expm1``: a trivial bound stays +0.0.
        lower[live[side]] = np.maximum(
            0.0, (0.0 - np.expm1(exponent)) * (1.0 - BRACKET_MARGIN)
        )
    return lower, upper


def _chernoff_exponent(
    sign: float,
    atoms: np.ndarray,
    spans: np.ndarray,
    target: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
) -> np.ndarray:
    """``min_λ>=0 [-s·λ·target + Σ_t log mean_k e^{s·λ·R_tk}]``.

    ``atoms`` is the atom-major ``(K, L, n)`` residual tensor and
    ``spans`` its ``(L, n)`` per-timestamp maxima.  Every exponential
    stays in (0, 1]: for ``s = -1`` because each timestamp's smallest
    residual is 0, for ``s = +1`` by pivoting on the maxima,
    ``log mean e^{λR} = λ·span + log mean e^{λ(R - span)}``.
    Evaluated at λ = 0, the Gaussian start ``s·(target - mean) /
    variance`` and :data:`BRACKET_NEWTON_STEPS` Newton iterates; each
    candidate's value is padded by :data:`EXPONENT_SLACK` times its
    magnitude, so the returned exponent is never below a true bound's.
    """
    if sign < 0:
        centred, pivot_sum = atoms, 0.0
    else:
        centred, pivot_sum = atoms - spans, spans.sum(axis=1)
    scale = target + spans.sum(axis=1)
    best = np.zeros(target.shape)  # λ = 0: the trivial bound
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = sign * (target - mean) / variance
    lam = np.where(np.isfinite(lam), np.maximum(lam, 0.0), 0.0)
    for step in range(BRACKET_NEWTON_STEPS + 1):
        weights = np.exp((sign * lam)[:, None] * centred)
        total = weights.sum(axis=0)
        log_mgf = np.log(total / atoms.shape[0]).sum(axis=1)
        value = sign * lam * (pivot_sum - target) + log_mgf
        value += EXPONENT_SLACK * (1.0 + lam * scale)
        best = np.fmin(best, value)
        if step == BRACKET_NEWTON_STEPS:
            break
        weights *= atoms
        tilted_mean = weights.sum(axis=0) / total
        weights *= atoms
        tilted_second = weights.sum(axis=0) / total
        # d/dλ = s·(Σ tilted mean - target); d²/dλ² = Σ tilted variance.
        slope = sign * (tilted_mean.sum(axis=1) - target)
        curvature = (tilted_second - tilted_mean * tilted_mean).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            stepped = lam - slope / curvature
        lam = np.where(np.isfinite(stepped), np.maximum(stepped, 0.0), lam)
    return best
