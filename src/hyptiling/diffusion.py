"""Leafwise diffusion on the tiled half-plane.

The driving process is half-plane Brownian motion run in logarithmic height:
with u = ln y the height obeys du = dW - dt/2 exactly, so the Euler chain
u_{k+1} = u_k + sqrt(dt) * xi - dt/2 has the true law at every step and the
terminal displacement is N(-T/2, T) with no discretization error.  Every
tile of one row has the same color, so each leafwise result (occupancy,
crossings, the height law) depends on u alone and no horizontal coordinate
is walked.

Each path draws its du noise from one Philox stream, in chunks of CHUNK
steps so that its noise memory stays constant; its occupancy keeps one entry
per row visited, about T / (2 ln 2) under the drift, and the rows cap bounds
that over a run.  The two execution modes read the same stream and agree bit
for bit.  "fast" draws into per-path buffers that every chunk reuses (cumsum,
division by ln 2 and floor run in place) and reads occupancy, colorability
and crossings from the runs of equal rows alone; "full" walks the same chain
step by step, an independent route to the same fields.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain

from .errors import CapError, DomainError, SizeError, cap
from .measures import (TRIANGLE, ergodic_measure_count, hull_membership,
                       transition_matrix)
from .record import record
from .symbolic import _size_text, block_labels

LN2 = math.log(2.0)

#: Steps of noise drawn at a time; a path holds one chunk.
CHUNK = 2**16


@record
class DiffusionConfig:
    model: object
    dt: float = 1e-3
    horizon: float = 2000.0
    paths: int = 50
    seed: int = 0
    trace_stride: int = 0

    def __post_init__(self):
        if not (self.dt > 0) or not math.isfinite(self.dt):
            raise DomainError(f"step size {self.dt} must be positive")
        if self.horizon < 0 or not math.isfinite(self.horizon):
            raise DomainError(f"horizon {self.horizon} must be nonnegative")
        if self.paths < 1:
            raise DomainError(f"need at least one path, got {self.paths}")
        if self.seed < 0:
            raise DomainError(f"seed {self.seed} must be nonnegative")
        if self.trace_stride < 0:
            raise DomainError("trace stride must be nonnegative")
        if self.horizon / self.dt == math.inf:
            raise SizeError(f"horizon {self.horizon} over step {self.dt} "
                            "overflows the step count")
        if self.n_steps > cap("steps"):
            raise SizeError(f"{_size_text(self.n_steps)} steps exceeds the "
                            f"{cap('steps')} step cap")
        if self.trace_stride > 0:
            points = self.paths * (self.n_steps // self.trace_stride + 1)
            if points > cap("trace_points"):
                raise SizeError(
                    f"{_size_text(points)} trace points exceeds the "
                    f"{cap('trace_points')} point cap; raise the trace stride"
                )
        if self.paths > cap("paths"):
            raise SizeError(f"{_size_text(self.paths)} paths exceeds the "
                            f"{cap('paths')} path cap")
        rows = self.paths * math.ceil(self.horizon / (2 * LN2))
        if rows > cap("rows"):
            raise SizeError(f"{_size_text(rows)} rows exceeds the {cap('rows')} "
                            "row cap; a path crosses about T / (2 ln 2) rows")

    @property
    def n_steps(self) -> int:
        ratio = self.horizon / self.dt
        return max(0, math.ceil(ratio - 1e-9 * max(1.0, abs(ratio))))


@record
class LeafState:
    """Walker position: log-height and the row it lies in."""

    u: float
    row: int

    def __post_init__(self):
        if not math.isfinite(self.u):
            raise DomainError(f"log-height {self.u} is not finite")
        if math.floor(self.u / LN2) != self.row:
            raise DomainError(
                f"row {self.row} disagrees with log-height {self.u}"
            )


@record
class PathResult:
    path_index: int
    mode: str
    dt: float
    n_steps: int
    steps_used: int
    partial: bool
    u0: float
    u_final: float
    row_final: int
    min_row: int
    max_row: int
    row_crossings: int
    row_steps: dict  # row -> integer step count, over step-start states
    stop_row: object = None  # the uncolorable row that truncated the path
    trace: tuple = ()

    @property
    def displacement(self) -> float:
        return self.u_final - self.u0

    @property
    def time_elapsed(self) -> float:
        return self.steps_used * self.dt

    def letter_steps(self, model) -> dict:
        """Integer step counts regrouped by row color."""
        return self.block_steps(model, 0)

    def block_steps(self, model, q: int) -> dict:
        """Step counts regrouped by the level-q block label of each row."""
        length = model.level_length(q)
        first = min(self.row_steps, default=0) // length
        labels = block_labels(model, q, first,
                              max(self.row_steps, default=-1) // length + 1)
        out = {}
        for row, steps in self.row_steps.items():
            label = labels[row // length - first]
            if label is None:
                model.block_letter(q, row // length)  # raises the cap error
            out[label] = out.get(label, 0) + steps
        return out


def _noise(config: DiffusionConfig, path_index: int, out=None):
    """Height increments du = sqrt(dt) * xi - dt/2, CHUNK steps at a time.

    The Philox key is (seed, path_index, 0), so both modes see the same du.
    Each chunk is yielded as a view of out (at least min(CHUNK, n_steps)
    long, allocated once if not given) and overwritten by the next.
    """
    import numpy as np

    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(path_index, 0))
    rng = np.random.Generator(np.random.Philox(seq))
    sqrt_dt = math.sqrt(config.dt)
    n = config.n_steps
    if out is None:
        out = np.empty(min(CHUNK, n))
    for done in range(0, n, CHUNK):
        draws = out[:min(CHUNK, n - done)]
        rng.standard_normal(out=draws)
        draws *= sqrt_dt
        draws -= config.dt / 2.0
        yield draws


def simulate_path(config: DiffusionConfig, start: LeafState = None,
                  path_index: int = 0, mode: str = "fast") -> PathResult:
    """Run one path.  Modes produce bit-identical height and occupancy data.

    The path is truncated, with the partial flag set, at the first step whose
    starting row the model cannot color.
    """
    if mode not in ("fast", "full"):
        raise DomainError(f"unknown mode {mode!r}")
    if start is None:
        start = LeafState(u=math.log(1.5), row=0)
    walk = _walk_fast if mode == "fast" else _walk_full
    fields = walk(config, start, path_index)
    occupied = fields["row_steps"]
    return PathResult(path_index=path_index, mode=mode, dt=config.dt,
                      n_steps=config.n_steps, u0=start.u,
                      partial=fields["stop_row"] is not None,
                      min_row=min(occupied, default=start.row),
                      max_row=max(occupied, default=start.row), **fields)


def _walk_fast(config: DiffusionConfig, start: LeafState,
               path_index: int) -> dict:
    import numpy as np

    n = config.n_steps
    stride = config.trace_stride
    u, row = start.u, start.row
    row_steps, trace, stop_row = {}, [], None
    crossings = steps_used = 0
    # Slot 0 carries u into the chunk and the noise fills slots 1.., so one
    # in-place cumsum adds in the same order as u + du_k.
    u_buf = np.empty(min(CHUNK, n) + 1)
    rows_buf = np.empty_like(u_buf)  # floor(u / ln 2), as floats
    moved = np.ones(len(u_buf), dtype=bool)  # True where a run of rows starts
    for du in _noise(config, path_index, u_buf[1:]):
        m = len(du)
        u_path, rows = u_buf[:m + 1], rows_buf[:m + 1]
        u_path[0] = u
        np.cumsum(u_path, out=u_path)
        np.floor(np.divide(u_path, LN2, out=rows), out=rows)
        np.not_equal(rows[1:], rows[:-1], out=moved[1:m + 1])
        moved[m] = True  # the end state closes the last run
        starts = np.flatnonzero(moved[:m + 1])
        run_rows = rows[starts].astype(np.int64)
        runs = len(starts) - 1  # the runs of steps 0..m-1
        used = m
        lo = int(run_rows[:runs].min())
        labels = block_labels(config.model, 0, lo, int(run_rows[:runs].max()) + 1)
        if None in labels:
            colorable = np.array([a is not None for a in labels], dtype=bool)
            bad = ~colorable[run_rows[:runs] - lo]
            if bad.any():
                runs = int(np.argmax(bad))
                used = int(starts[runs])
                stop_row = int(run_rows[runs])
        if stride > 0:
            first = -steps_used % stride
            last = used if stop_row is None else used + 1
            trace.extend(zip(range(steps_used + first, steps_used + last, stride),
                             u_path[first:last:stride].tolist(),
                             rows[first:last:stride].astype(np.int64).tolist()))
        counts = np.bincount(run_rows[:runs] - lo,
                             weights=starts[1:runs + 1] - starts[:runs])
        occupied = np.flatnonzero(counts)
        for r, c in zip((occupied + lo).tolist(), counts[occupied].tolist()):
            row_steps[r] = row_steps.get(r, 0) + int(c)
        # Consecutive runs differ by the whole jump, however many rows it spans.
        crossings += int(np.abs(run_rows[1:runs + 1] - run_rows[:runs]).sum())
        steps_used += used
        u, row = float(u_path[used]), int(rows[used])
        if stop_row is not None:
            break
    if stride > 0 and stop_row is None and n % stride == 0:
        trace.append((n, u, row))
    # Rows in ascending order, as one bincount over the whole path lists them.
    return dict(steps_used=steps_used, u_final=u, row_final=row,
                row_crossings=crossings, row_steps=dict(sorted(row_steps.items())),
                stop_row=stop_row, trace=tuple(trace))


def _walk_full(config: DiffusionConfig, start: LeafState,
               path_index: int) -> dict:
    n = config.n_steps
    # memoryview yields each chunk's doubles without building lists; safe
    # because _noise overwrites its buffer only once the chunk is consumed.
    steps = enumerate(chain.from_iterable(map(memoryview,
                                              _noise(config, path_index))))
    colorable = cache(lambda r: block_labels(config.model, 0, r, r + 1)[0]
                      is not None)  # each row's color, looked up once
    u, row = start.u, start.row
    row_steps, trace, stop_row = {}, [], None
    crossings, steps_used = 0, n
    stride = config.trace_stride
    row_ok = colorable(row)
    entered = 0  # the step at which the walk entered the current row

    for k, du in steps:
        if stride > 0 and k % stride == 0:
            trace.append((k, u, row))
        if not row_ok:
            steps_used = k
            stop_row = row
            break
        u += du
        new_row = math.floor(u / LN2)
        if new_row != row:
            row_steps[row] = row_steps.get(row, 0) + k + 1 - entered
            entered = k + 1
            crossings += abs(new_row - row)
            row = new_row
            row_ok = colorable(row)
    if steps_used > entered:
        row_steps[row] = row_steps.get(row, 0) + steps_used - entered
    if stride > 0 and stop_row is None and n % stride == 0:
        trace.append((n, u, row))
    return dict(steps_used=steps_used, u_final=u, row_final=row,
                row_crossings=crossings, row_steps=row_steps,
                stop_row=stop_row, trace=tuple(trace))


def run_paths(config: DiffusionConfig, mode: str = "fast") -> list:
    return [
        simulate_path(config, None, index, mode) for index in range(config.paths)
    ]


# ---------------------------------------------------------------------------
# Height-law statistics


def log_height_samples(results) -> "numpy.ndarray":
    """Drift-compensated terminal displacements, one per complete path.

    Each sample is u_T - u_0 + T/2 and is exactly N(0, T) in law.
    """
    import numpy as np

    vals = [
        r.displacement + r.steps_used * r.dt / 2.0 for r in results if not r.partial
    ]
    return np.asarray(vals, dtype=np.float64)


def _height_sample(results, purpose: str = "") -> tuple:
    """(compensated samples, T) of the complete paths: at least 30 of them."""
    samples = log_height_samples(results)
    if len(samples) < 30:
        raise DomainError(
            f"need at least 30 complete paths{purpose}, got {len(samples)}"
        )
    return samples, max(r.time_elapsed for r in results if not r.partial)


def log_height_stats(results) -> dict:
    samples, horizon = _height_sample(results)
    return {
        "paths": int(len(samples)),
        "horizon": horizon,
        "mean": float(samples.mean()),
        "variance": float(samples.var(ddof=1)),
        "expected_mean": 0.0,
        "expected_variance": horizon,
    }


def height_law_test(results) -> tuple:
    """Kolmogorov-Smirnov statistic and p-value of the compensated samples
    against N(0, T).

    D = max(D+, D-) over the sorted samples against the normal CDF
    0.5 * erfc(-z / sqrt(2)); the p-value is the two-sided tail
    P(D_n >= D) of `_kolmogorov_sf`.
    """
    import numpy as np

    samples, horizon = _height_sample(results, " for the distribution test")
    if horizon <= 0:
        raise DomainError("zero horizon has a degenerate law")
    n = len(samples)
    scale = math.sqrt(horizon)
    cdf = np.array([0.5 * math.erfc(-(x / scale) / math.sqrt(2.0))
                    for x in np.sort(samples).tolist()])
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    stat = float(max(d_plus, d_minus))
    return stat, _kolmogorov_sf(n, stat)


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic of n samples.

    Branch rules of Simard and L'Ecuyer, "Computing the two-sided
    Kolmogorov-Smirnov distribution" (JSS 39, 2011), with t = n * d:
    Ruben and Gambino's closed forms at both ends, twice the one-sided tail
    where the two tails cannot meet (d >= 1/2) or their overlap is
    negligible, Durbin's exact matrix for small t, and the Pelz-Good
    asymptotic series for the rest of large n.  The thresholds and their
    order are those of scipy 1.17's `kstwo.sf`.
    """
    t = n * d
    if t <= 0.5:
        return 1.0
    if d >= 1.0:
        return 0.0
    if t <= 1.0:  # P(D_n < d) = n!/n^n (2t - 1)^n
        return 1.0 - math.exp(math.lgamma(n + 1) + n * math.log((2 * t - 1) / n))
    if t >= n - 1:
        sf = 2.0 * (1.0 - d) ** n
    elif d >= 0.5 or (n <= 140 and t * d > 4.0):
        sf = 2.0 * _smirnov_sf(n, d)
    elif n <= 140:
        sf = 1.0 - _durbin_cdf(n, d)
    elif t * d >= 370.0:
        return 0.0
    elif t * d >= 2.2:
        sf = 2.0 * _smirnov_sf(n, d)
    elif n <= 100_000 and n * d**1.5 <= 1.4:
        sf = 1.0 - _durbin_cdf(n, d)
    else:
        sf = 1.0 - _pelz_good_cdf(n, d)
    return min(max(sf, 0.0), 1.0)


def _smirnov_sf(n: int, d: float) -> float:
    """One-sided tail P(D_n+ >= d) by the Birnbaum-Tingey sum, each term in
    log space: d * sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)."""
    head = math.lgamma(n + 1)
    logs = []
    for j in range(n + 1):
        low = 1.0 - d - j / n
        if low <= 0.0:
            break
        logs.append(head - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                    + (n - j) * math.log(low) + (j - 1) * math.log(d + j / n))
    top = max(logs)
    return d * math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) by Durbin's matrix: entry (k, k) of n!/n^n H^n with
    k = ceil(n d), evaluated as Marsaglia, Tsang and Wang do ("Evaluating
    Kolmogorov's distribution", JSS 8, 2003), with a power-of-two exponent
    kept aside so that nothing overflows."""
    import numpy as np

    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = [1.0]
    for j in range(1, m + 1):
        inv_fact.append(inv_fact[-1] / j)
    v = [(1.0 - h ** (j + 1)) * inv_fact[j + 1] for j in range(m)]
    v[-1] = (1.0 + max(2 * h - 1.0, 0.0) ** m - 2 * h**m) * inv_fact[m]
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1:, i] = inv_fact[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = v[::-1]
    power, exponent, h_exponent = np.eye(m), 0, 0
    bits = n
    while bits:  # H^n by squaring; H is kept as H_true * 2**-h_exponent
        if bits & 1:
            power = power @ H
            exponent += h_exponent
            while abs(power[k - 1, k - 1]) > 2.0**128:
                power /= 2.0**128
                exponent += 128
        H = H @ H
        h_exponent *= 2
        while abs(H[k - 1, k - 1]) > 2.0**128:
            H /= 2.0**128
            h_exponent += 128
        bits >>= 1
    p = float(power[k - 1, k - 1])
    for i in range(1, n + 1):
        p = i * p / n
        if abs(p) < 2.0**-128:
            p *= 2.0**128
            exponent -= 128
    return math.ldexp(p, exponent)


def _pelz_good_cdf(n: int, d: float) -> float:
    """Pelz and Good's series for P(D_n < d) (JRSS B 38, 1976): Li-Chien and
    Korolyuk's expansion in 1/sqrt(n), transformed with Jacobi theta
    functions so that it converges fast for small z = sqrt(n) d."""
    z = math.sqrt(n) * d
    z2, z4, z6 = z * z, z**4, z**6
    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    q_log = -pi2 / 8 / z2
    if q_log < -708:
        return 0.0
    q = math.exp(q_log)
    top = math.ceil(16 * z / math.pi)
    sums = [0.0] * 4
    for k in range(top, 0, -1):  # Horner in q^8 over the odd m = 2k - 1
        m2 = (2 * k - 1) ** 2
        q_power = q ** (8 * k)
        coeffs = (1.0,
                  -z2 + pi2 / 4 * m2,
                  6 * z6 + 2 * z4 + (2 * z4 - 5 * z2) * pi2 / 4 * m2
                  + pi4 * (1 - 2 * z2) / 16 * m2**2,
                  -30 * z6 - 90 * z**8 + pi2 * (135 * z4 - 96 * z6) / 4 * m2
                  + pi4 * (-60 * z2 + 212 * z4) / 16 * m2**2
                  + pi6 * (5 - 30 * z2) / 64 * m2**3)
        sums = [s * q_power + c for s, c in zip(sums, coeffs)]
    root = math.sqrt(2 * math.pi)
    terms = [s * q * root / den
             for s, den in zip(sums, (z, 6 * z4, 72 * z**7, 6480 * z**10))]
    q = math.exp(-pi2 / 2 / z2)  # the sums over all k of K_2 and K_3
    ks = range(top, 0, -1)
    terms[2] += (sum(k * k * q ** (k * k) for k in ks)
                 * pi2 * root / (-36 * z**3))
    terms[3] += (sum((3 * z2 - (math.pi * k) ** 2) * k * k * q ** (k * k)
                     for k in ks) * pi2 * root / (216 * z6))
    return sum(term / n ** (i / 2) for i, term in enumerate(terms))


# ---------------------------------------------------------------------------
# Occupancy versus predicted frequencies


def expected_block_fractions(model, q: int) -> tuple:
    """Fractions of the level-q block labels under the model's invariant
    measure, when it is unique and the level matrices repeat from q on.

    They are then the fixed vector T v = b v, sum(v) = 1, of the level-q
    triangle matrix T with b = model.branching(q): the exact barycentric
    coordinates of the origin in the columns of T - b I, rounded once.
    A model of more than one letter whose level-(q+1) matrix differs from
    T fails that contract and raises a domain error.
    """
    b = model.branching(q)
    ints = transition_matrix(model, q, TRIANGLE).ints
    if model.r > 1 and transition_matrix(model, q + 1, TRIANGLE).ints != ints:
        raise DomainError(f"the level-{q} and level-{q + 1} matrices differ; "
                          "block fractions need repeating level matrices")
    shifted = tuple(tuple(x - b * (i == j) for i, x in enumerate(col))
                    for j, col in enumerate(zip(*ints)))
    return tuple(float(x) for x in hull_membership(shifted, (0,) * model.r))


def garnett_compare(config: DiffusionConfig, results, q: int = 0) -> dict:
    """Empirical time fractions per level-q block label of the paths in
    results, simulated under config, with expectations.

    Per-path fractions give a plain Monte Carlo band of 1.96 * sd / sqrt(P).
    When the measure count is not one, or a cap stops the count,
    there is no expected vector and the comparison columns are left empty
    with an explanatory note.
    """
    import numpy as np

    model = config.model
    complete = [r for r in results if not r.partial]
    if not complete:
        rows = sorted({r.stop_row for r in results})
        raise CapError(
            f"every path stopped at an uncolorable row (rows {rows}); "
            "raise the model's filling-depth cap"
        )

    counts = [[steps.get(i, 0) for i in range(1, model.r + 1)]
              for steps in (res.block_steps(model, q) for res in complete)]
    used = [sum(row) for row in counts]
    grand_total = sum(used)
    if not grand_total:
        raise DomainError(f"no complete path took a step (horizon {config.horizon})")
    empirical = [sum(column) / grand_total for column in zip(*counts)]
    per_path = [[c / u if u else 0.0 for c in row] for row, u in zip(counts, used)]
    if len(complete) > 1:
        bands = (1.96 * np.std(per_path, axis=0, ddof=1)
                 / math.sqrt(len(complete))).tolist()
    else:
        bands = [math.inf] * model.r

    try:
        count = ergodic_measure_count(model)
        certified, why = count.status == "stabilized", ""
    except (CapError, SizeError) as err:  # max_depth or the matrix cap
        certified, why = False, f" ({err})"
    unique = certified and count.count == 1
    expected, note = None, ""
    if unique:
        expected = list(expected_block_fractions(model, q))
    elif not certified:
        note = f"measure count not certified{why}; no expected fractions"
    else:
        note = "non-uniquely-ergodic: no single expectation"

    rows = [{"label": i + 1, "empirical": e, "band": b,
             "expected": None if expected is None else expected[i]}
            for i, (e, b) in enumerate(zip(empirical, bands))]
    for entry in rows if expected is not None else ():
        entry["within_band"] = (abs(entry["empirical"] - entry["expected"])
                                <= max(entry["band"], 1e-12))

    return {
        "level": q,
        "paths": len(results),
        "complete_paths": len(complete),
        "partial_paths": len(results) - len(complete),
        "dt": config.dt,
        "horizon": config.horizon,
        "total_steps": grand_total,
        "unique_measure": unique,
        "note": note,
        "labels": rows,
    }
