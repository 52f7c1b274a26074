"""Pure helpers of the repository benchmark: oracle loading and checks,
the seeded serve-mixed request generator and its traffic shares, the
tail-percentile rule, and the per-layer reduction of a traced run.
run.py does the process work; test_benchlib.py tests these."""

import itertools
import json
import random
import statistics

INSTRS = 200000  # serve requests use Table 5's final length
# One block of serve-mixed traffic, shuffled: exact repeats of one of
# the last REPEAT_WINDOW requests, whatifs of 1-3 workloads on one
# Table-4 configuration, and square matrices of 2-3 workloads on their
# own configurations. Fixed block shares keep the work mix of a run
# the same from seed to seed; the seed picks order, workloads and
# configurations. The shares, the window and the sizes are an assumed
# mix: no recorded xps-serve traffic stands behind them (README.md).
BLOCK = (["repeat"] * 2 + [("whatif", k) for k in (1, 1, 2, 2, 3, 3)]
         + [("matrix", k) for k in (2, 2, 3, 3)])
REPEAT_WINDOW = 8
SETUP_GROUP = 4  # set-up samples per group; see setup_value

# Table-4 CSV column -> xps-serve config key.
CONFIG_KEYS = {
    "clock_ns": "clock_ns", "width": "width", "rob": "rob_size",
    "iq": "iq_size", "lsq": "lsq_size", "sched_depth": "sched_depth",
    "lsq_depth": "lsq_depth", "l1_sets": "l1_sets",
    "l1_assoc": "l1_assoc", "l1_line": "l1_line_bytes",
    "l1_cycles": "l1_cycles", "l2_sets": "l2_sets",
    "l2_assoc": "l2_assoc", "l2_line": "l2_line_bytes",
    "l2_cycles": "l2_cycles",
}


# --- oracles ---------------------------------------------------------

def data_lines(path):
    """A cache CSV without its manifest and footer comment lines."""
    with open(path) as f:
        return [ln.rstrip("\n") for ln in f if not ln.startswith("#")]


def load_table4(path):
    """{workload: {serve config key: number}}, in suite order."""
    lines = data_lines(path)
    header = lines[0].split(",")
    configs = {}
    for ln in lines[1:]:
        row = dict(zip(header, ln.split(",")))
        configs[row["name"]] = {
            CONFIG_KEYS[k]: (float(v) if k == "clock_ns" else int(v))
            for k, v in row.items() if k != "name"}
    return configs


def load_table5(path):
    """{workload: {config column: IPT cell as printed}}."""
    lines = data_lines(path)
    header = lines[0].split(",")
    return {cells[0]: dict(zip(header[1:], cells[1:]))
            for cells in (ln.split(",") for ln in lines[1:])}


def compare_csv(expected_path, got_path):
    """(cells compared, cells that differ) between two cache CSVs,
    manifest lines excluded. A missing or reshaped file differs in
    every expected cell."""
    want = [ln.split(",") for ln in data_lines(expected_path)]
    cells = sum(len(row) for row in want)
    try:
        got = [ln.split(",") for ln in data_lines(got_path)]
    except OSError:
        return cells, cells
    if [len(r) for r in got] != [len(r) for r in want]:
        return cells, cells
    bad = sum(a != b for rw, rg in zip(want, got) for a, b in zip(rw, rg))
    return cells, bad


def check_response(request, response, table5):
    """(cells checked, cells wrong) for one serve reply. Every IPT
    must equal its Table-5 cell at the CSV's six decimals; a non-ok
    status or a missing or extra cell makes every cell wrong."""
    workloads = request["workloads"]
    if request["op"] == "whatif":
        want = {(w, request["config_of"]) for w in workloads}
    else:
        want = {(w, c) for w in workloads for c in workloads}
    try:
        reply = json.loads(response)
    except ValueError:
        return len(want), len(want)
    if reply.get("status") != "ok" or reply.get("degraded"):
        return len(want), len(want)
    seen, bad = set(), 0
    for row in reply.get("results", []):
        w = row.get("workload")
        if request["op"] == "whatif":
            c = request["config_of"]
        else:
            idx = int(row.get("config", -1))
            c = workloads[idx] if 0 <= idx < len(workloads) else None
            bad += row.get("status") != "ok"
        cell = (w, c)
        try:
            printed = "%.6f" % float(row.get("ipt"))
        except (TypeError, ValueError):
            printed = None
        if cell not in want or cell in seen or \
                printed != table5.get(w, {}).get(c):
            bad += 1
        seen.add(cell)
    return len(want), min(len(want), bad + len(want - seen))


def own_cells(request, response):
    """{workload: IPT} of a matrix reply's own-configuration cells."""
    workloads = request["workloads"]
    return {row["workload"]: float(row["ipt"])
            for row in json.loads(response)["results"]
            if workloads[int(row["config"])] == row["workload"]}


# --- serve-mixed traffic ---------------------------------------------

def _request(op, workloads, config_of=None):
    return {"op": op, "workloads": sorted(workloads),
            "config_of": config_of}


def generate_requests(seed, count, table4):
    """`count` request descriptors for serve-mixed, a function of
    `seed` alone. The first few are square matrix requests that
    together cover every workload's own configuration; the rest are
    shuffled BLOCKs. Fresh requests of each shape are dealt from a
    shuffled deck of every identity of that shape, so a fresh request
    repeats an earlier identity only once its deck runs out, and the
    repeat share is set by the BLOCK, not by chance collisions."""
    rng = random.Random(seed)
    names = list(table4)
    # One name per distinct configuration: the daemon keys
    # configurations by value (gcc's and twolf's are one).
    configs = []
    for n in names:
        if all(_config_key(table4, n) != _config_key(table4, c)
               for c in configs):
            configs.append(n)
    order = names[:]
    rng.shuffle(order)
    reqs = []
    while order:
        size = 2 if len(order) in (2, 4) else 3
        reqs.append(_request("matrix", order[:size]))
        order = order[size:]
    covering = {tuple(r["workloads"]) for r in reqs}
    decks = {}

    def deal(op, size):
        deck = decks.get((op, size))
        if not deck:
            sets = itertools.combinations(names, size)
            deck = decks[(op, size)] = (
                [(ws, c) for ws in sets for c in configs]
                if op == "whatif" else
                [(ws, None) for ws in sets if ws not in covering])
            rng.shuffle(deck)
        workloads, config = deck.pop()
        return _request(op, workloads, config)

    while len(reqs) < count:
        for slot in rng.sample(BLOCK, len(BLOCK)):
            if slot == "repeat":
                reqs.append(dict(rng.choice(reqs[-REPEAT_WINDOW:])))
            else:
                reqs.append(deal(*slot))
    return reqs[:count]


def request_line(index, req, table4):
    """The NDJSON line the daemon receives for one descriptor."""
    body = {"op": req["op"], "id": "r%d" % index,
            "workloads": req["workloads"], "instrs": INSTRS}
    if req["op"] == "whatif":
        body["config"] = table4[req["config_of"]]
    else:
        body["configs"] = [table4[w] for w in req["workloads"]]
    return json.dumps(body, separators=(",", ":"))


def _config_key(table4, name):
    return tuple(sorted(table4[name].items()))


def _identity_and_cells(req, table4):
    if req["op"] == "whatif":
        cfgs = (_config_key(table4, req["config_of"]),)
        cells = {(w, cfgs[0]) for w in req["workloads"]}
    else:
        cfgs = tuple(_config_key(table4, w) for w in req["workloads"])
        cells = {(w, c) for w in req["workloads"] for c in cfgs}
    return (req["op"], tuple(req["workloads"]), cfgs), cells


def traffic_shares(reqs, table4):
    """Shares of the properties a store or coalescing change would
    exploit, over the requests actually sent. Identities follow the
    daemon's: configurations compare by value, not by name."""
    seen_ids, cell_owner = set(), {}
    kinds = {"whatif": 0, "matrix": 0}
    repeats = fresh_cells = shared_cells = shared_reqs = 0
    for req in reqs:
        kinds[req["op"]] += 1
        ident, cells = _identity_and_cells(req, table4)
        if ident in seen_ids:
            repeats += 1
            continue
        seen_ids.add(ident)
        shared = sum(1 for c in cells
                     if cell_owner.get(c, ident) != ident)
        for c in cells:
            cell_owner.setdefault(c, ident)
        fresh_cells += len(cells)
        shared_cells += shared
        shared_reqs += shared > 0
    n = max(1, len(reqs))
    return {
        "requests": len(reqs),
        "whatif_share": kinds["whatif"] / n,
        "matrix_share": kinds["matrix"] / n,
        "exact_repeat_share": repeats / n,
        "shared_cell_share": shared_cells / max(1, fresh_cells),
        "requests_with_shared_cells_share": shared_reqs / n,
    }


# --- timing statistics -----------------------------------------------

def tail_percentile(n):
    """(p, samples beyond it): the highest whole percentile in [50, 99]
    whose nearest-rank sample has at least ten samples above it, or
    the median when fewer than 20 samples leave no such percentile."""
    for p in range(99, 49, -1):
        beyond = n - ((p * n + 99) // 100)
        if beyond >= 10:
            return p, beyond
    return 50, n - ((50 * n + 99) // 100)


def setup_value(samples, group=SETUP_GROUP):
    """The set-up time of a run: the median, over consecutive groups
    of `group` samples, of each group's fastest. A sample that a
    neighbour's burst of load delays is dropped by its group, so the
    figure follows the program rather than the moment's host load."""
    return statistics.median(min(samples[i:i + group])
                             for i in range(0, len(samples), group))


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, (p * len(ordered) + 99) // 100 - 1)]


# --- per-layer reduction of a traced pipeline unit -------------------

# Main-thread labels, most specific first: an instant of the unit's
# timeline belongs to the first label whose span covers it.
_PARTITION = [
    ("workload.trace_build_s", lambda e: e["name"] in
     ("trace.generate", "trace.decode", "bench.traces")),
    ("util.write_s", lambda e: e["name"] in
     ("atomic_file.write", "bench.write")),
    ("explore.adopt_s", lambda e: e["name"] == "explore.adopt"),
    ("explore.final_s", lambda e: e["name"] == "explore.final"),
    ("explore.anneal_s", lambda e: e["name"] == "explore.round"),
    ("comm.matrix_s", lambda e: e["name"] == "bench.matrix"),
    ("comm.analyses_s", lambda e: e["name"] == "bench.analyses"),
]
PARTITION_LAYERS = [name for name, _ in _PARTITION]


def partition_unit(events):
    """Split the wall time of the traced unit (the bench.unit span)
    among the layers of _PARTITION. Spans on the unit's own thread
    count, and explore.round on any thread, since the main thread
    waits on the annealing workers. Returns ({layer: s}, wall_s,
    uncovered_s)."""
    unit = next(e for e in events if e["name"] == "bench.unit")
    t0, t1 = unit["ts"], unit["ts"] + unit["dur"]
    spans = []
    for e in events:
        if e.get("ph") != "X" or e is unit:
            continue
        if e["tid"] != unit["tid"] and e["name"] != "explore.round":
            continue
        for rank, (_, match) in enumerate(_PARTITION):
            if match(e):
                spans.append((max(t0, e["ts"]),
                              min(t1, e["ts"] + e["dur"]), rank))
                break
    cuts = sorted({t0, t1} | {s for s, _, _ in spans} |
                  {f for _, f, _ in spans})
    share = [0.0] * len(_PARTITION)
    uncovered = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b <= a or a < t0 or b > t1:
            continue
        ranks = [r for s, f, r in spans if s <= a and f >= b]
        if ranks:
            share[min(ranks)] += b - a
        else:
            uncovered += b - a
    us = 1e-6
    return ({name: share[i] * us for i, name in enumerate(PARTITION_LAYERS)},
            (t1 - t0) * us, uncovered * us)


def _is_explore_checkpoint(path):
    # The matrix's resume file shares the directory; it is not the
    # explorer's.
    return "/checkpoints/" in path and not path.endswith(".partial")


def span_totals(events):
    """Counts and busy seconds of the library's spans, every thread
    and process summed."""
    out = {"sim_runs": 0, "sim_busy_s": 0.0, "sim_instrs": 0,
           "trace_generates": 0, "trace_busy_s": 0.0,
           "checkpoint_write_s": 0.0}
    for e in events:
        if e.get("ph") != "X":
            continue
        dur = e["dur"] * 1e-6
        if e["name"] == "sim.run":
            out["sim_runs"] += 1
            out["sim_busy_s"] += dur
            out["sim_instrs"] += int(e.get("args", {}).get("instrs", 0))
        elif e["name"] in ("trace.generate", "trace.decode"):
            out["trace_generates"] += e["name"] == "trace.generate"
            out["trace_busy_s"] += dur
        elif e["name"] == "atomic_file.write" and \
                _is_explore_checkpoint(e.get("args", {}).get("path", "")):
            out["checkpoint_write_s"] += dur
    return out


def ratio(num, den):
    return num / den if den else 0.0
