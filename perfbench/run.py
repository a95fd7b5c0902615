"""evonets benchmark: one workload, one process, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload eeg-grow --seed 1 --seconds 35 --trace 0

The run generates its inputs from --seed (set-up is repeated and its median
reported as setup_s), then repeats passes over the workload's operations,
each a call of `evonets.cli.main` for train, evaluate, extract-rules and
export, until --seconds is used up (at least two passes). Every operation's
output is checked; a failed check is counted, not fatal.

--trace 0 reports the end-to-end metrics (medians over passes). Timings are
rescaled to a reference machine speed (see speed.py); raw ones are printed too.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Everything else (per-method times, quartiles, the environment)
is printed above it and written to perfbench/_work/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
SETUPS = 3
MIN_PASSES = 2
LAST_PASS_START_S = 150.0   # keeps a run well inside 180 s whatever --seconds says
NO_DOT_EXPORT = {"fnn"}     # methods `export --format dot` rejects

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_s", "s"),
    ("evaluate_s", "s"),
    ("extract_rules_s", "s"),
    ("test_error", "fraction"),
    ("peak_rss_mb", "MB"),
)


def cap_threads():
    """Cap the BLAS and OpenMP pools at the CPUs this process may use.
    Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    threads = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            requested = int(os.environ.get(var, nproc))
        except ValueError:
            requested = nproc
        value = max(1, min(requested, nproc))
        os.environ[var] = str(value)
        if var == "OPENBLAS_NUM_THREADS":
            threads = value
    return nproc, threads


def git_sha(root):
    """Commit of a git checkout, read without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def tree_sha256(directory):
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def summary(values):
    """(median, first quartile, third quartile, count)."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


class Runner:
    """Runs the operations of one workload pass and checks their outputs."""

    def __init__(self, cli, modelio, workload, tables, seed, work, tracer, clock):
        self.cli = cli
        self.modelio = modelio
        self.workload = workload
        self.tables = tables
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.clock = clock
        self.models = {m.name: m for m in workload.models}
        self.first = {}        # output key -> value every later pass must repeat
        self.errors = {}       # model name -> held-out error
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.pass_no = 0

    def data(self, key, part):
        return str(self.work / f"{key}.{part}.csv")

    def model_path(self, name):
        return str(self.work / "models" / f"{name}.json")

    def op(self, kind, label, name, argv, check, traced, method=None):
        """One timed cli.main call followed by its (untimed) output check.

        A crash, a non-zero exit or a failed check counts as a failed
        operation; the run goes on."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        crash = None
        self.tracer.active = traced
        self.tracer.begin_op(self.attempted, name)
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # reported below as a failed operation
            rc, crash = None, exc
        seconds = perf_counter() - start
        self.tracer.end_op()
        self.tracer.active = False
        scaled = self.clock.scaled(seconds)
        try:
            if crash is not None:
                raise crash
            if rc != 0:
                raise CheckError(f"exit code {rc}: {err.getvalue().strip()[-300:]}")
            check(out.getvalue())
            ok = True
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed += 1
            ok = False
            message = f"pass {self.pass_no} {kind} {label}: {type(exc).__name__}: {exc}"
            self.problems.append(message)
            print(f"perfbench: FAILED {message}", file=sys.stderr)
        return {"pass": self.pass_no, "kind": kind, "label": label, "method": method,
                "seconds": seconds, "scaled": scaled, "ok": ok}

    def repeat(self, key, value):
        """Record value on the first pass; later passes must reproduce it."""
        if key not in self.first:
            self.first[key] = value
        elif self.first[key] != value:
            raise CheckError(f"{key} changed between passes: {self.first[key]!r} -> {value!r}")

    def check_train(self, model):
        def check(out):
            path = self.model_path(model.name)
            bundle = self.modelio.load_model(path)
            if bundle.method != model.method:
                raise CheckError(f"reloaded method {bundle.method!r}")
            self.repeat(f"sha256:{path}", sha256(path))
        return check

    def check_evaluate(self, model):
        table = self.tables[model.data]

        def check(out):
            fields = dict(re.findall(r"^(rows|error)=(\S+)$", out, re.M))
            rows, error = int(fields["rows"]), float(fields["error"])
            if rows != len(table.y_held):
                raise CheckError(f"evaluated {rows} rows, expected {len(table.y_held)}")
            if not error <= model.ceiling:
                raise CheckError(f"held-out error {error} above ceiling {model.ceiling}")
            if model.name not in self.errors:
                self.errors[model.name] = error
                self.cross_check(model, error)
            self.repeat(f"error:{model.name}", error)
        return check

    def cross_check(self, model, error):
        """Recompute the held-out error from the in-memory inputs."""
        import numpy as np
        table = self.tables[model.data]
        bundle = self.modelio.load_model(self.model_path(model.name))
        index = {name: k for k, name in enumerate(bundle.label_names)}
        labels = np.array([index[s] for s in table.y_held])
        mine = float(np.mean(bundle.predict_csv_features(table.x_held) != labels))
        if mine != error:
            raise CheckError(f"evaluate printed error {error}, recomputed {mine}")

    def check_rules(self, rules, path):
        def check(out):
            found = re.search(r"^rule_error=(\S+) source_error=(\S+)$", out, re.M)
            rule_error = float(found.group(1))
            if not rule_error <= rules.ceiling:
                raise CheckError(f"rule_error {rule_error} above ceiling {rules.ceiling}")
            if self.modelio.load_model(path).method != "ruletree":
                raise CheckError("extracted model is not a rule tree")
            self.repeat(f"sha256:{path}", sha256(path))
            self.repeat(f"rule_error:{rules.source}", rule_error)
        return check

    def check_export(self, path):
        def check(out):
            if Path(path).stat().st_size == 0:
                raise CheckError("empty export")
            self.repeat(f"sha256:{path}", sha256(path))
        return check

    def run_pass(self, traced):
        self.pass_no += 1
        seed = str(self.seed)
        records = []
        for m in self.workload.models:
            argv = ["train", "--method", m.method, "--data", self.data(m.data, "train"),
                    "--out", self.model_path(m.name), "--seed", seed, *m.flags]
            records.append(self.op("train", m.name, f"train.{m.method}", argv,
                                   self.check_train(m), traced, m.method))
        for m in self.workload.models:
            argv = ["evaluate", "--model", self.model_path(m.name),
                    "--data", self.data(m.data, "held")]
            records.append(self.op("evaluate", m.name, "evaluate", argv,
                                   self.check_evaluate(m), traced))
        for r in self.workload.rules:
            source = self.models[r.source]
            path = str(self.work / "models" / f"{r.source}.rules.json")
            argv = ["extract-rules", "--model", self.model_path(r.source),
                    "--data", self.data(source.data, "held"), "--out", path]
            records.append(self.op("extract-rules", r.source, "extract-rules", argv,
                                   self.check_rules(r, path), traced))
        for m in self.workload.models:
            for fmt in ("text",) if m.method in NO_DOT_EXPORT else ("text", "dot"):
                path = str(self.work / "export" / f"{m.name}.{fmt}")
                argv = ["export", "--model", self.model_path(m.name), "--format", fmt,
                        "--out", path]
                records.append(self.op("export", m.name, "export", argv,
                                       self.check_export(path), traced))
        return records


class CheckError(Exception):
    """An operation ran but its output is wrong."""


def pass_metrics(records, field):
    """Timings of one pass, raw ("seconds") or rescaled to the reference
    speed ("scaled"): totals per operation kind and per train method."""
    def total(pred):
        return sum(r[field] for r in records if pred(r))
    m = {
        "wall_s": total(lambda r: True),
        "train_s": total(lambda r: r["kind"] == "train"),
        "evaluate_s": total(lambda r: r["kind"] == "evaluate"),
        "extract_rules_s": total(lambda r: r["kind"] == "extract-rules"),
        "export_s": total(lambda r: r["kind"] == "export"),
    }
    for method in sorted({r["method"] for r in records if r["kind"] == "train"}):
        m[f"train_s.{method}"] = total(lambda r: r["method"] == method)
    return m


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="evonets benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="time budget for the measured passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(workload, seed, work, clock):
    """Generate and write the inputs SETUPS times; all set-ups must write the
    same bytes. Returns the tables and the raw and rescaled set-up times."""
    raw, scaled, tables, digest = [], [], None, None
    for _ in range(SETUPS):
        start = perf_counter()
        tables = workload.set_up(seed, work)
        raw.append(perf_counter() - start)
        scaled.append(clock.scaled(raw[-1]))
        again = {p.name: sha256(p) for p in sorted(work.glob("*.csv"))}
        if digest is not None and again != digest:
            raise RuntimeError("generated inputs differ between set-ups")
        digest = again
    return tables, raw, scaled


def main(argv=None):
    nproc, blas_threads = cap_threads()
    from workloads import WORKLOADS   # imports numpy, so only after the thread cap
    args = parse_args(argv, sorted(WORKLOADS))
    src = ROOT / "src"
    if not (src / "evonets" / "cli.py").is_file():
        print(f"perfbench: evonets sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np
    import tracer as tr
    from speed import Clock

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    for sub in ("models", "export"):
        (work / sub).mkdir(parents=True, exist_ok=True)

    clock = Clock()
    start = perf_counter()
    import evonets.cli as cli
    import evonets.modelio as modelio
    import_raw = perf_counter() - start
    import_scaled = clock.scaled(import_raw)
    seed = args.seed % 2**32    # numpy seeds must be non-negative
    tables, setup_raw, setup_scaled = set_up(workload, seed, work, clock)

    tracer = tr.Tracer()
    if args.trace:
        tracer.install("evonets")
    runner = Runner(cli, modelio, workload, tables, seed, work, tracer, clock)

    scaled, raw, traced_walls, layers, durations, ops = [], [], [], [], [], []
    start = perf_counter()
    budget = min(args.seconds, LAST_PASS_START_S)
    while True:
        traced = bool(args.trace) and len(durations) % 2 == 1
        if traced:
            tracer.reset()
        t0 = perf_counter()
        records = runner.run_pass(traced)
        ops += records
        durations.append(perf_counter() - t0)
        if traced:
            traced_walls.append(pass_metrics(records, "scaled")["wall_s"])
            layers.append(tr.layer_metrics(tracer.spans, tracer.counts))
        else:
            scaled.append(pass_metrics(records, "scaled"))
            raw.append(pass_metrics(records, "seconds"))
        if len(durations) >= MIN_PASSES and \
                perf_counter() - start + statistics.median(durations) > budget:
            break
    tracer.uninstall()

    test_error = statistics.mean(runner.errors.values()) if runner.errors else float("nan")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {"setup_s": tuple(v + import_scaled for v in summary(setup_scaled)[:3])
           + (SETUPS,)}
    e2e.update((k, summary(p[k] for p in scaled)) for k in scaled[0])
    e2e["test_error"] = (test_error, test_error, test_error, 1)
    e2e["peak_rss_mb"] = (peak_rss_mb, peak_rss_mb, peak_rss_mb, 1)
    e2e_raw = {"setup_s": tuple(v + import_raw for v in summary(setup_raw)[:3]) + (SETUPS,)}
    e2e_raw.update((k, summary(p[k] for p in raw)) for k in raw[0])

    env = {
        "git_sha": git_sha(ROOT), "src_sha256": tree_sha256(src / "evonets"),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": nproc, "blas_threads": blas_threads,
    }
    print(f"# perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"passes={len(durations)}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# times rescaled to the reference speed; raw wall times in the .raw lines")
    units = dict(END_TO_END)
    for key, (med, q1, q3, n) in list(e2e.items()) + \
            [(k + ".raw", v) for k, v in e2e_raw.items()]:
        print(f"{key:26s} {med:12.6g} {units.get(key, 's'):8s} "
              f"q1={q1:.6g} q3={q3:.6g} n={n}")

    result = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "pass_seconds": durations,
              "end_to_end": {k: dict(zip(("median", "q1", "q3", "n"), v))
                             for k, v in e2e.items()},
              "end_to_end_raw": {k: dict(zip(("median", "q1", "q3", "n"), v))
                                 for k, v in e2e_raw.items()},
              "passes_scaled": scaled, "passes_raw": raw, "operations": ops,
              "held_out_errors": runner.errors, "outputs": runner.first}

    if workload.name == "eeg-grow":
        m = len(tables["eeg72"].names)
        gd = runner.models["gmdh-layered-gd"]
        result["not_run"] = {"case": f"gmdh-layered {' '.join(gd.flags)} at {m} features",
                             "first_layer_candidates": m * (m - 1) // 2}

    if args.trace:
        layer = tr.median_metrics(layers)
        layer["trace.overhead_s"] = statistics.median(traced_walls) - \
            statistics.median(p["wall_s"] for p in scaled)
        count, checks = tr.layer_checks(workload.name, layer, tracer.missing)
        runner.attempted += count
        runner.failed += len(checks)
        runner.problems += checks
        for problem in checks:
            print(f"perfbench: FAILED trace check: {problem}", file=sys.stderr)
        if "not_run" in result:
            spc = layer["gmdh.layered.s_per_candidate"]
            result["not_run"]["s_per_candidate"] = spc
            result["not_run"]["estimated_first_layer_s"] = \
                spc * result["not_run"]["first_layer_candidates"]
        tracer.write_spans(work / "spans.jsonl")
        result["per_layer"] = layer
        for k, u in tr.LAYER_METRICS:
            print(f"{k:34s} {layer[k]:14.6g} {u}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in tr.LAYER_METRICS}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END}
    print(f"{'failed_frac':26s} {runner.failed / runner.attempted:12.6g} fraction "
          f"({runner.failed}/{runner.attempted} checks)")
    if "not_run" in result:
        print("not_run status=not-run " +
              " ".join(f"{k}={v}" for k, v in result["not_run"].items()))

    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    (work / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
