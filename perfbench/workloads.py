"""Seeded query lists for the four workloads, and how each query is run,
answered, checked and counted.

A query is plain data: a kind, a block size m, the column heights of its
boards, and kind-specific parameters.  The library only ever receives
the generated boards.  Every query's exact work, predicted by a counting
formula, is drawn into a fixed band, so that one seed cannot produce a
query hundreds of times slower than the rest of its pass.

Per query kind there are four pure functions:

- ``call(q, lib, boards)``: the timed calls into the library;
- ``answer(q, raw)``: the raw result reduced to plain data, without
  calling the library again;
- ``expect(q)``: the same plain data from ``reference`` alone;
- ``counters(q)``: exact work counters from counting formulas.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import asdict, dataclass, field

import reference as ref

WORKLOADS = ("enum", "cover", "poly", "cli")

COUNTERS = (
    "placements.yielded",
    "rooktheory.file_leaves",
    "rooktheory.rook_leaves",
    "cancellation.nonrook",
    "cancellation.classes",
    "cancellation.members",
    "cancellation.enumerated",
    "ffpoly.linear_steps",
    "boards.cells",
)


@dataclass(frozen=True)
class Query:
    kind: str
    m: int
    boards: tuple
    params: dict = field(default_factory=dict)

    @property
    def heights(self) -> tuple:
        return self.boards[0]


# ---------------------------------------------------------------- generation

# Work bands (lo, hi) per query kind, in the unit of its work formula.
# Chosen so one query takes roughly 5-40 ms on a 2-core x86 container.
BANDS = {
    "rook_numbers": (45_000, 55_000),  # row visits of the m-level walk
    "weighted_file_numbers": (24_000, 32_000),  # leaves: prod(1 + b_i)
    "m_level_equivalent": (45_000, 55_000),  # row visits of both walks
    "count_file": (1_100, 1_500),  # e_k placements yielded
    "count_mlevel": (900, 1_200),  # r_k placements yielded
    "verify_cover": (250, 330),  # non-rook placements, all k >= 2
    "geometry": (90_000, 110_000),  # n + sum(ceil(b_i / m))
    "expand": (100_000, 115_000),  # coefficient updates of the expansion
    "roundtrip": (150_000, 170_000),  # coefficient updates of three zone expansions
    "identity": (100_000, 115_000),  # coefficient updates of the zone, level (and br) expansions
}

ENUM_KINDS = ("rook_numbers", "weighted_file_numbers", "m_level_equivalent", "count_file", "count_mlevel")
POLY_KINDS = ("geometry", "expand", "roundtrip", "identity")
COUNT_K = 3
PER_KIND = {"enum": 24, "cover": 100, "poly": 30}
CLI_RUNGS = 13
CLI_COMMANDS = ("info", "enumerate", "numbers", "poly", "verify", "partition", "equiv", "census")
MAX_TRIES = 100_000


def in_band(kind: str, work: int) -> bool:
    lo, hi = BANDS[kind]
    return lo <= work <= hi


def random_heights(rng: random.Random, n: int, top: int) -> tuple:
    return tuple(sorted(rng.randint(0, top) for _ in range(n)))


def make_singleton(heights, m: int) -> tuple:
    """Round down each column whose partial level the next column shares."""
    hs = list(heights)
    for i in range(len(hs) - 1):
        if hs[i] % m and hs[i] - hs[i] % m >= hs[i + 1] - hs[i + 1] % m:
            hs[i] -= hs[i] % m
    assert ref.is_singleton(hs, m)
    return tuple(hs)


def level_partner(rng: random.Random, heights, m: int):
    """A different board with the same level numbers, hence m-level equivalent.

    Columns whose heights lie in [m(L-1), mL] fill levels below L and
    share out level L's cells; moving cells between them keeps every
    level number.  Returns None when no level allows a move.
    """
    levels = list(range(1, len(heights) + 1))
    rng.shuffle(levels)
    for level in levels:
        lo = m * (level - 1)
        block = [i for i, h in enumerate(heights) if lo <= h <= lo + m]
        cells = [heights[i] - lo for i in block]
        if len(block) < 2 or sum(cells) in (0, m * len(block)):
            continue
        for _ in range(4 * len(block)):
            a, b = rng.sample(range(len(block)), 2)
            if cells[a] > 0 and cells[b] < m:
                cells[a] -= 1
                cells[b] += 1
        new = list(heights)
        for i, c in zip(block, sorted(cells)):
            new[i] = lo + c
        if tuple(new) != tuple(heights):
            return tuple(new)
    return None


def expansion_work(consts) -> int:
    """Coefficient updates of expanding prod(x + c) one factor at a time.

    Step i updates i coefficients of about S_i bits, S_i being the bit
    length of prod(1 + |c_j|) over the first i factors.  An update costs
    about one 64-digit (30-bit digits) multiply-add more than its fixed
    interpreter overhead, so it counts as 1 + digits / 64.
    """
    work = bits = 0
    for i, c in enumerate(consts, 1):
        bits += abs(c).bit_length()
        work += i * (64 + bits // 30)
    return work // 64


def _poly_work(kind, h, m, form) -> int:
    if kind == "geometry":
        return len(h) + sum(-(-b // m) for b in h)
    if kind == "expand":
        return expansion_work(ref.constants(form, h, m))
    zone = expansion_work(ref.zone_constants(h, m))
    if kind == "roundtrip":
        return 3 * zone
    br = expansion_work(ref.br_constants(h, m)) if ref.is_singleton(h, m) else 0
    return zone + expansion_work(ref.level_constants(h, m)) + br


def _draw(rng: random.Random, accept):
    for _ in range(MAX_TRIES):
        q = accept()
        if q is not None:
            return q
    raise RuntimeError("no query fell in its work band; widen the band")


def _enum_query(rng: random.Random, kind: str, j: int) -> Query | None:
    m = 1 + j % 3
    n = rng.choice((5, 6, 7))
    h = random_heights(rng, n, rng.randint(1, m * n))
    if kind == "rook_numbers":
        return Query(kind, m, (h,)) if in_band(kind, ref.rook_walk_work(h, m)) else None
    if kind == "weighted_file_numbers":
        return Query(kind, m, (h,)) if in_band(kind, math.prod(1 + b for b in h)) else None
    if kind == "m_level_equivalent":
        partner = level_partner(rng, h, m) if rng.random() < 0.5 else None
        if partner is None:
            partner = random_heights(rng, n, rng.randint(1, m * n))
        work = ref.rook_walk_work(h, m) + ref.rook_walk_work(partner, m)
        return Query(kind, m, (h, partner)) if in_band(kind, work) else None
    # one k for every count query: the cost of a placement grows with its rooks
    counts = ref.file_counts(h) if kind == "count_file" else ref.rook_numbers(h, m)
    return Query(kind, m, (h,), {"k": COUNT_K}) if in_band(kind, counts[COUNT_K]) else None


def _cover_query(rng: random.Random, j: int) -> Query | None:
    m = 2 + j % 2
    n = rng.choice((4, 5, 6))
    h = make_singleton(random_heights(rng, n, rng.randint(1, m * n)), m)
    e, r = ref.file_counts(h), ref.rook_numbers(h, m)
    nonrook = sum(e[k] - r[k] for k in range(2, n + 1))
    return Query("verify_cover", m, (h,)) if in_band("verify_cover", nonrook) else None


def _poly_query(rng: random.Random, kind: str, j: int) -> Query | None:
    m = 1 + j % 4
    form = ("gjw", "br", "zone", "level")[j // 4 % 4]
    n = rng.randint(100, 800)
    h = random_heights(rng, n, rng.randint(1, m * n) if kind == "geometry" else m * n)
    if j // 2 % 2:
        h = make_singleton(h, m)
    if not in_band(kind, _poly_work(kind, h, m, form)):
        return None
    return Query(kind, m, (h,), {"form": form} if kind == "expand" else {})


def _cli_rung(rng: random.Random) -> list[Query]:
    """One rung of the ladder: every subcommand on one small board."""

    def small_board():
        m = rng.choice((1, 2, 3))
        n = rng.choice((3, 4, 5))
        h = random_heights(rng, n, rng.randint(1, m * n))
        if math.prod(1 + b for b in h) > 20_000:
            return None
        s = make_singleton(h, m)
        e, r = ref.file_counts(s), ref.rook_numbers(s, m)
        if sum(e) - sum(r) > 200:
            return None
        return m, h, s

    m, h, s = _draw(rng, small_board)
    board, n = ",".join(map(str, h)), len(h)
    out = [Query("info", m, (h,), {"argv": ["info", "--board", board, "--m", str(m)]})]
    k = rng.randint(0, n)
    kind = rng.choice(("file", "rook", "mlevel"))
    argv = ["enumerate", "--board", board, "--m", str(m), "--k", str(k), "--kind", kind, "--limit", "5"]
    out.append(Query("enumerate", m, (h,), {"argv": argv, "k": k, "kind": kind}))
    kind, fmt = rng.choice(("rook", "file")), rng.choice(("json", "csv"))
    argv = ["numbers", "--board", board, "--m", str(m), "--kind", kind, "--format", fmt]
    out.append(Query("numbers", m, (h,), {"argv": argv, "kind": kind, "format": fmt}))
    form = rng.choice(("pm", "file", "gjw", "br", "zone", "level"))
    basis = rng.choice(("power", "mfalling"))
    argv = ["poly", "--board", board, "--m", str(m), "--form", form, "--basis", basis]
    out.append(Query("poly", m, (h,), {"argv": argv, "form": form, "basis": basis}))
    out.append(Query("verify", m, (h,), {"argv": ["verify", "--board", board, "--m", str(m)]}))
    argv = ["partition", "--board", ",".join(map(str, s)), "--m", str(m)]
    out.append(Query("partition", m, (s,), {"argv": argv}))
    partner = level_partner(rng, h, m) or random_heights(rng, n, rng.randint(1, m * n))
    argv = ["equiv", "--a", board, "--b", ",".join(map(str, partner)), "--m", str(m)]
    out.append(Query("equiv", m, (h, partner), {"argv": argv}))

    def census_levels():
        cm, cn = rng.choice((1, 2)), rng.choice((4, 5))
        if not 1_000 <= ref.census_candidates(cn, cm) <= 5_000:
            return None
        return cm, ref.level_numbers(random_heights(rng, cn, rng.randint(1, cm * cn)), cm)

    cm, levels = _draw(rng, census_levels)
    argv = ["census", "--levels", ",".join(map(str, levels)), "--m", str(cm)]
    out.append(Query("census", cm, (), {"argv": argv, "levels": list(levels)}))
    return out


def generate(workload: str, seed: int) -> list[Query]:
    """The query list of one pass; the same seed always gives the same list."""
    # Block sizes, forms and singleton shares cycle with the query index j,
    # so every seed gets the same mix; the seed draws the boards.
    rng = random.Random(f"{workload}/{seed}")
    if workload == "enum":
        queries = [_draw(rng, lambda: _enum_query(rng, kind, j)) for kind in ENUM_KINDS for j in range(PER_KIND["enum"])]
    elif workload == "cover":
        queries = [_draw(rng, lambda: _cover_query(rng, j)) for j in range(PER_KIND["cover"])]
    elif workload == "poly":
        queries = [_draw(rng, lambda: _poly_query(rng, kind, j)) for kind in POLY_KINDS for j in range(PER_KIND["poly"])]
    elif workload == "cli":
        queries = [q for _ in range(CLI_RUNGS) for q in _cli_rung(rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(queries)
    return queries


def digest(queries: list[Query]) -> str:
    """Short hash of the query list, to show that two runs shared inputs."""
    text = json.dumps([asdict(q) for q in queries], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- library calls


def call(q: Query, lib, boards):
    """The timed part of a library query (not used for ``cli``)."""
    m, kind = q.m, q.kind
    if kind == "rook_numbers":
        return lib.rook_numbers(boards[0], m)
    if kind == "weighted_file_numbers":
        return lib.weighted_file_numbers(boards[0], m)
    if kind == "m_level_equivalent":
        return lib.m_level_equivalent(boards[0], boards[1], m)
    if kind == "count_file":
        return sum(1 for _ in lib.enumerate_file_placements(boards[0], q.params["k"]))
    if kind == "count_mlevel":
        return sum(1 for _ in lib.enumerate_m_level_rook_placements(boards[0], m, q.params["k"]))
    if kind == "verify_cover":
        return [lib.verify_cover(boards[0], m, k) for k in range(2, boards[0].n + 1)]
    if kind == "geometry":
        b = boards[0]
        return lib.zones(b, m), lib.level_numbers(b, m), lib.is_singleton(b, m)
    if kind == "expand":
        roots = getattr(lib, q.params["form"] + "_roots")
        return lib.expand_roots(roots(boards[0]) if q.params["form"] == "gjw" else roots(boards[0], m))
    if kind == "roundtrip":
        p = lib.expand_roots(lib.zone_roots(boards[0], m))
        q_ff = p.to_mfalling(m)
        return p, q_ff, q_ff.to_power()
    if kind == "identity":
        b = boards[0]
        pz = lib.expand_roots(lib.zone_roots(b, m))
        zone_is_level = pz == lib.expand_roots(lib.level_roots(b, m))
        br_is_zone = pz == lib.expand_roots(lib.br_roots(b, m)) if lib.is_singleton(b, m) else None
        return zone_is_level, br_is_zone, pz
    raise ValueError(f"unknown query kind {kind!r}")


def answer(q: Query, raw):
    """Plain data from a raw result, comparable with ``expect(q)``."""
    kind = q.kind
    if kind in ("rook_numbers", "weighted_file_numbers"):
        return tuple(raw)
    if kind == "m_level_equivalent":
        return bool(raw)
    if kind in ("count_file", "count_mlevel"):
        return raw
    if kind == "verify_cover":
        return tuple((r.ok, r.nonrook_count, len(r.classes), r.total_weight) for r in raw)
    if kind == "geometry":
        zs, levels, singleton = raw
        return tuple((z.start, z.end, z.floor, z.remainder) for z in zs), tuple(levels), singleton
    if kind == "expand":
        return raw.m, len(raw.coeffs), ref.power_values(raw.coeffs)
    if kind == "roundtrip":
        p, q_ff, p2 = raw
        return (
            ref.power_values(p.coeffs),
            q_ff.m,
            ref.mfalling_values(q_ff.coeffs, q.m),
            p2.m,
            p2.coeffs == p.coeffs,
        )
    if kind == "identity":
        zone_is_level, br_is_zone, pz = raw
        return zone_is_level, br_is_zone, ref.power_values(pz.coeffs)
    return cli_answer(q, raw)


def coeff_bits(q: Query, raw) -> int:
    """Bit length of the largest polynomial coefficient in a result."""
    polys = []
    if q.kind == "expand":
        polys = [raw.coeffs]
    elif q.kind == "roundtrip":
        polys = [raw[0].coeffs, raw[1].coeffs]
    elif q.kind == "identity":
        polys = [raw[2].coeffs]
    elif q.kind == "poly" and raw[0] == 0:
        polys = [json.loads(raw[1])["coeffs"]]
    return max((abs(c).bit_length() for p in polys for c in p), default=0)


# ---------------------------------------------------------------- references


def expect(q: Query):
    """The answer ``answer(q, raw)`` must equal, from ``reference`` alone."""
    kind, m, h = q.kind, q.m, q.heights if q.boards else ()
    if kind == "rook_numbers":
        return ref.rook_numbers(h, m)
    if kind == "weighted_file_numbers":
        return ref.column_recurrence(h, m)
    if kind == "m_level_equivalent":
        a, b = q.boards
        return len(a) == len(b) and ref.rook_numbers(a, m) == ref.rook_numbers(b, m)
    if kind == "count_file":
        return ref.file_counts(h)[q.params["k"]]
    if kind == "count_mlevel":
        return ref.rook_numbers(h, m)[q.params["k"]]
    if kind == "verify_cover":
        e, r = ref.file_counts(h), ref.rook_numbers(h, m)
        return tuple((True, e[k] - r[k], ref.cover_counts(h, m, k)[1], 0) for k in range(2, len(h) + 1))
    if kind == "geometry":
        return ref.zones(h, m), ref.level_numbers(h, m), ref.is_singleton(h, m)
    if kind == "expand":
        return None, len(h) + 1, ref.product_values(ref.constants(q.params["form"], h, m))
    if kind == "roundtrip":
        values = ref.product_values(ref.zone_constants(h, m))
        return values, m, values, None, True
    if kind == "identity":
        singleton = ref.is_singleton(h, m)
        return True, (True if singleton else None), ref.product_values(ref.zone_constants(h, m))
    return cli_expect(q)


# ---------------------------------------------------------------- the CLI


def _cli_form_constants(form: str, h, m: int):
    # p_m equals the zone product and the weighted-file polynomial the br product
    return ref.constants({"pm": "zone", "file": "br"}.get(form, form), h, m)


def cli_answer(q: Query, raw):
    code, stdout = raw
    kind, p = q.kind, q.params
    if kind == "numbers" and p["format"] == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        return code, rows[0], tuple(int(v) for _, v in rows[1:])
    lines = [json.loads(line) for line in stdout.splitlines()]
    out = lines[-1]
    if kind == "info":
        zs = tuple((z["start"], z["end"], z["floor"], z["remainder"]) for z in out["zones"])
        return code, tuple(out["heights"]), out["total_cells"], out["singleton"], zs, tuple(out["level_numbers"])
    if kind == "enumerate":
        return code, out["count"], len(out["placements"])
    if kind == "numbers":
        return code, tuple(out["values"])
    if kind == "poly":
        coeffs = out["coeffs"]
        if p["basis"] == "mfalling":
            return code, out["basis"], ref.mfalling_values(coeffs, q.m)
        return code, out["basis"], ref.power_values(coeffs)
    if kind == "verify":
        return code, out["checks"]
    if kind == "partition":
        keys = ("ok", "nonrook_placements", "num_classes", "total_weight", "witness")
        return code, len(lines) - 1, tuple(out[key] for key in keys)
    if kind == "equiv":
        return code, out["equivalent"], tuple(out["rook_numbers_a"]), tuple(out["rook_numbers_b"])
    if kind == "census":
        return code, out["count"]
    raise ValueError(f"unknown query kind {kind!r}")


def cli_expect(q: Query):
    kind, m, p = q.kind, q.m, q.params
    h = q.heights if q.boards else ()
    if kind == "info":
        return 0, h, sum(h), ref.is_singleton(h, m), ref.zones(h, m), ref.level_numbers(h, m)
    if kind == "enumerate":
        count = {
            "file": ref.file_counts(h),
            "rook": ref.rook_numbers(h, 1),
            "mlevel": ref.rook_numbers(h, m),
        }[p["kind"]][p["k"]]
        return 0, count, min(count, 5)
    if kind == "numbers":
        values = ref.rook_numbers(h, m) if p["kind"] == "rook" else ref.column_recurrence(h, m)
        if p["format"] == "csv":
            return 0, ["k", "value"], values
        return 0, values
    if kind == "poly":
        values = ref.product_values(_cli_form_constants(p["form"], h, m))
        return 0, p["basis"], values
    if kind == "verify":
        checks = {
            "gjw": True if m == 1 else None,
            "br_equals_pm": True if ref.is_singleton(h, m) else None,
            "zone": True,
            "level": True,
            "file": True,
        }
        return 0, checks
    if kind == "partition":
        e, r = ref.file_counts(h), ref.rook_numbers(h, m)
        nonrook = sum(e) - sum(r)
        classes = sum(ref.cover_counts(h, m, k)[1] for k in range(len(h) + 1))
        return 0, classes, (True, nonrook, classes, 0, None)
    if kind == "equiv":
        a, b = q.boards
        ra, rb = ref.rook_numbers(a, m), ref.rook_numbers(b, m)
        return 0, ra == rb, ra, rb
    if kind == "census":
        return 0, ref.census_count(p["levels"], m)
    raise ValueError(f"unknown query kind {kind!r}")


# ---------------------------------------------------------------- work counters


def counters(q: Query) -> dict:
    """Exact work of one query, from counting formulas."""
    c = dict.fromkeys(COUNTERS, 0)
    kind, m, p = q.kind, q.m, q.params
    c["boards.cells"] = sum(sum(h) for h in q.boards)
    if not q.boards:  # census: every candidate board is scanned
        n = len(p["levels"])
        c["boards.cells"] = ref.census_candidates(n, m) * n * m * n // 2
        return c
    h = q.heights
    n = len(h)
    leaves = math.prod(1 + b for b in h) if n < 100 else None

    def rook_leaves(*boards):
        return sum(sum(ref.rook_numbers(b, m)) for b in boards)

    if kind == "rook_numbers":
        c["rooktheory.rook_leaves"] = rook_leaves(h)
    elif kind == "weighted_file_numbers":
        c["rooktheory.file_leaves"] = leaves
    elif kind == "m_level_equivalent":
        c["rooktheory.rook_leaves"] = rook_leaves(*q.boards)
    elif kind == "count_file":
        c["placements.yielded"] = ref.file_counts(h)[p["k"]]
    elif kind == "count_mlevel":
        c["placements.yielded"] = ref.rook_numbers(h, m)[p["k"]]
    elif kind in ("verify_cover", "partition"):
        e, r = ref.file_counts(h), ref.rook_numbers(h, m)
        ks = range(2, n + 1) if kind == "verify_cover" else range(n + 1)
        nonrook = sum(e[k] - r[k] for k in ks)
        c["placements.yielded"] = c["cancellation.enumerated"] = sum(e[k] for k in ks)
        c["cancellation.nonrook"] = c["cancellation.members"] = nonrook
        c["cancellation.classes"] = sum(ref.cover_counts(h, m, k)[1] for k in ks)
    elif kind == "expand":
        c["ffpoly.linear_steps"] = n
    elif kind == "roundtrip":
        c["ffpoly.linear_steps"] = n + 2 * (n + 1)
    elif kind == "identity":
        c["ffpoly.linear_steps"] = 2 * n + (n if ref.is_singleton(h, m) else 0)
    elif kind == "enumerate":
        c["placements.yielded"] = cli_expect(q)[1]
    elif kind == "numbers":
        if p["kind"] == "rook":
            c["rooktheory.rook_leaves"] = rook_leaves(h)
        else:
            c["rooktheory.file_leaves"] = leaves
    elif kind == "poly":
        steps = {"pm": n + 1, "file": n + 1}.get(p["form"], n)
        c["ffpoly.linear_steps"] = steps + (n + 1 if p["basis"] == "mfalling" else 0)
        if p["form"] == "pm":
            c["rooktheory.rook_leaves"] = rook_leaves(h)
        elif p["form"] == "file":
            c["rooktheory.file_leaves"] = leaves
    elif kind == "verify":
        # p_m once; the zone, level and file checks always run, gjw for m = 1,
        # br on singleton boards; the file check expands the br product too
        expansions = 3 + (m == 1) + ref.is_singleton(h, m)
        c["ffpoly.linear_steps"] = (n + 1) + expansions * n + (n + 1)
        c["rooktheory.rook_leaves"] = rook_leaves(h)
        c["rooktheory.file_leaves"] = leaves
    elif kind == "equiv":
        # m_level_equivalent walks both boards, then the CLI prints both again
        c["rooktheory.rook_leaves"] = 2 * rook_leaves(*q.boards)
    return c
