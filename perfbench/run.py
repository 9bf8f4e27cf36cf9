"""Benchmark of the oppsim CLI, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload star-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The benchmark imports ``oppsim`` from ``src/`` and calls ``oppsim.cli.main``
in this process, timing each call; it changes nothing in the package.  An
untraced run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) reports the per-layer metrics from spans recorded around
the package's public functions (see ``spans.py``).  Every CLI run's output
is checked against its workload's invariants and the golden sha256 of the
seed code's output; ``known_defects.json`` pins the one check the seed
code's own output fails, which is printed on every run but not counted as
failed (see ``Checker``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import LAYER_UNITS, Tracer, layer_metrics, replication_us, run_metrics, write_spans
from workloads import VARIANTS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
KNOWN_DEFECTS = HERE / "known_defects.json"
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "replications_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Other tenants of a shared machine slow it, for seconds to minutes at a
# time, to as little as half its speed, and that stretches every timing
# alike.  So the benchmark times a fixed reference loop between CLI calls
# and scales each call (and its set-up) by REFERENCE_S over the mean of the
# loop's times just before and just after it: a timing at the machine's
# nominal speed.  REFERENCE_S is the loop's typical time at full speed on
# the 2-core machine the benchmark was built on (Python 3.11.7), so scaled
# timings there read as wall times at full speed.  The benchmark reports
# the median of the scaled timings and also records the raw ones.
REFERENCE_S = 0.0105
# a run times at least this many CLI calls, however short --seconds is
MIN_CALLS = 5

# measured by hand before this benchmark existed, on a 2-core machine with
# Python 3.11.7 and numpy 2.4.6 (best of 3); printed next to the same
# quantities measured now, so that a machine change can be told apart from
# a code change
ROADMAP_BASELINE = {
    "engine us/replication, star_topology(6, 0.7)": 75e-6,
    "topology.generate s, 1000 nodes": 0.18,
    "analysis.network_path_costs s, 1000 nodes": 0.027,
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; nothing is measured."""


@dataclass
class Call:
    """One timed CLI call and what was wrong with its output."""

    seconds: float
    load: float
    problems: list[str]
    # the set-up timed before the call, if any
    setup_seconds: float | None = None
    # REFERENCE_S over the reference loop's time around the call
    scale: float = 1.0
    # traced calls only
    layers: dict[str, float] = field(default_factory=dict)
    replication_us: list[float] = field(default_factory=list)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import yaml

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def import_oppsim(root: Path):
    """Import the package from ``root/src`` and time the import."""
    src = (root / "src").resolve()
    if not (src / "oppsim" / "cli.py").is_file():
        raise BenchmarkError(f"no src/oppsim under {root}; run from the repository root")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import oppsim
    import oppsim.cli

    import_s = perf_counter() - start
    if Path(oppsim.__file__).resolve().parent != src / "oppsim":
        raise BenchmarkError(f"imported oppsim from {oppsim.__file__}, not from {src}")
    return oppsim, import_s


def invoke(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """Call ``cli.main(argv)``; return exit code, seconds, stdout, stderr.
    A call that raises counts as exit code 1, as it would in its own
    process, with the traceback as its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        seconds = perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def load_known_defect(workload: str, variant: int) -> tuple[str, str] | None:
    """The known defect of a workload variant on the seed code, as the
    output digest it is pinned to and the text its failed check starts
    with; None when the variant has none."""
    known = json.loads(KNOWN_DEFECTS.read_text()).get(workload)
    if known is None or str(variant) not in known["digests"]:
        return None
    return known["digests"][str(variant)], known["check"]


def prepare_argv(workload: Workload, variant: int, out: Path) -> list[str]:
    """The CLI arguments of a variant, writing its config file, if it has
    one, into the directory ``out``."""
    config = workload.config(variant)
    path = out / f"{workload.name}-variant{variant}.yaml"
    if config is not None:
        path.write_text(config)
    return workload.argv(variant, str(path))


class Checker:
    """Judges a CLI call's output; outputs are deterministic, so each
    distinct output is judged once.

    ``known`` pins a known defect of the seed code: a failed check whose
    text contains ``known[1]`` is reported in ``known_problems`` instead
    of failing the call, but only for the output whose sha256 is
    ``known[0]``, the seed code's own.  Any other output is held to every
    check."""

    def __init__(self, workload: Workload, golden: str | None,
                 known: tuple[str, str] | None = None) -> None:
        self.workload = workload
        self.golden = golden
        self.known = known
        self.known_problems: set[str] = set()
        self._verdicts: dict[str, list[str]] = {}

    def __call__(self, code: int, output: str, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        digest = hashlib.sha256(output.encode()).hexdigest()
        if digest not in self._verdicts:
            problems = self.workload.check(output)
            if self.known is not None and digest == self.known[0]:
                self.known_problems.update(p for p in problems if self.known[1] in p)
                problems = [p for p in problems if self.known[1] not in p]
            if self.golden is None:
                problems.append("no golden digest recorded for this variant")
            elif digest != self.golden:
                problems.append(f"output sha256 {digest[:16]} differs from golden {self.golden[:16]}")
            self._verdicts[digest] = problems
        return self._verdicts[digest]


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work (see REFERENCE_S): tuples and
    a 30,000-entry dict, a few MB like the objects a CLI call works on."""
    start = perf_counter()
    items = [(i, i * 0.5) for i in range(30_000)]
    table: dict[int, float] = {}
    for key, value in items:
        table[key * 7919 % 30_011] = value
    total = 0.0
    for key in range(0, 30_011, 2):
        total += table.get(key * 13 % 30_011, 0.0)
    return perf_counter() - start


def measure(cli, argv, check: Checker, seconds: float, setup=None, tracer=None):
    """Call the CLI repeatedly for ``seconds``, at least MIN_CALLS times,
    with the reference loop timed between calls.  ``setup``, if given, is
    timed before each call, so that set-up times sample the whole run.
    Returns the calls and, when traced, the spans of the last call."""
    calls: list[Call] = []
    last_spans = []
    reference = reference_loop()
    start = perf_counter()
    while len(calls) < MIN_CALLS or perf_counter() - start < seconds:
        setup_seconds = None
        if setup is not None:
            before = perf_counter()
            setup()
            setup_seconds = perf_counter() - before
        gc.collect()  # not to charge this call with the previous one's garbage
        load = os.getloadavg()[0]
        code, elapsed, output, stderr = invoke(cli, argv)
        if tracer is not None:
            last_spans = tracer.take()
        after = reference_loop()
        call = Call(elapsed, load, check(code, output, stderr), setup_seconds,
                    2.0 * REFERENCE_S / (reference + after))
        reference = after
        if tracer is not None:
            call.layers = run_metrics(last_spans)
            call.replication_us = replication_us(last_spans)
        calls.append(call)
    return calls, last_spans


def scaled_median(calls: list[Call], attr: str = "seconds") -> float:
    """Median over calls of a timing scaled to the machine's nominal speed."""
    return statistics.median(getattr(c, attr) * c.scale for c in calls)


def baseline_crosscheck(oppsim) -> list[str]:
    """Measure the ROADMAP's hand-measured quantities again, untraced,
    best of 3, and print both with their ratio."""
    topology, engine, analysis = oppsim.topology, oppsim.engine, oppsim.analysis
    star = topology.star_topology(6, 0.7)
    config = engine.SimConfig(
        mode=engine.ProtocolMode.RECEIVER_BASED, replications=2000, seed=0, source=7
    )
    generator = topology.GeneratorConfig(
        nodes=1000, area_side=100.0, radio_range=8.0, ber_model=topology.DistanceBer(0.0, 0.005)
    )
    mesh = topology.generate(generator, seed=1)

    def best(fn, per=1) -> float:
        times = []
        for _ in range(3):
            start = perf_counter()
            fn()
            times.append((perf_counter() - start) / per)
        return min(times)

    now = {
        "engine us/replication, star_topology(6, 0.7)": best(
            lambda: engine.run_experiment(star, config), config.replications
        ),
        "topology.generate s, 1000 nodes": best(lambda: topology.generate(generator, seed=1)),
        "analysis.network_path_costs s, 1000 nodes": best(
            lambda: analysis.network_path_costs(mesh)
        ),
    }
    lines = []
    for name, then in ROADMAP_BASELINE.items():
        scale = 1e6 if name.startswith("engine") else 1.0
        lines.append(
            f"# baseline {name}: now {now[name] * scale:.4g}, roadmap {then * scale:.4g},"
            f" ratio {now[name] / then:.3f}"
        )
    return lines


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(args, root: Path) -> int:
    workload = WORKLOADS[args.workload]
    # first, so that cli.import_s includes numpy and yaml
    oppsim, import_s = import_oppsim(root)
    env = environment()
    cli = oppsim.cli
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    variant = args.seed % VARIANTS
    argv = prepare_argv(workload, variant, out)
    check = Checker(
        workload,
        load_golden().get(workload.name, {}).get(str(variant)),
        load_known_defect(workload.name, variant),
    )
    nproc = env["nproc"]

    code, _, output, stderr = invoke(cli, argv)  # warm-up: lazy imports and caches
    warmup_problems = check(code, output, stderr)
    # before the reference loop and the set-ups can raise the high-water mark
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = []
    if args.trace:
        untraced, _ = measure(cli, argv, check, args.seconds / 2)
        with Tracer(oppsim) as tracer:
            traced, spans = measure(cli, argv, check, args.seconds / 2, tracer=tracer)
        overhead = scaled_median(traced) / scaled_median(untraced)
        pooled = [us for c in traced for us in c.replication_us]
        metrics = layer_metrics([c.layers for c in traced], pooled, import_s, overhead)
        units = LAYER_UNITS
        calls = untraced + traced
        lines += baseline_crosscheck(oppsim)
        write_spans(spans, out / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        calls, _ = measure(
            cli, argv, check, args.seconds, setup=lambda: workload.setup(oppsim)
        )
        run_s = scaled_median(calls)
        metrics = {
            "run_s": run_s,
            "setup_s": scaled_median(calls, "setup_seconds"),
            "replications_per_s": workload.replications / run_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    attempted = 1 + len(calls)
    failed = bool(warmup_problems) + sum(1 for c in calls if c.problems)
    overloaded = sum(1 for c in calls if c.load > nproc)
    times = [c.seconds for c in calls]
    q1, q3 = _quartiles(times)
    median_scale = statistics.median(c.scale for c in calls)
    problems = sorted({p for c in calls for p in c.problems} | set(warmup_problems))

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(
        f"# workload {workload.name} seed {args.seed} variant {variant} trace {args.trace}:"
        f" {len(calls)} timed CLI calls; unscaled seconds min {min(times):.4f} q1 {q1:.4f}"
        f" median {statistics.median(times):.4f} q3 {q3:.4f}; median scale {median_scale:.3f}"
    )
    if overloaded:
        print(f"# flagged: {overloaded} of {len(calls)} calls started with 1-min load above nproc={nproc}")
    for line in lines:
        print(line)
    for p in problems[:10]:
        print(f"# problem: {p}")
    for p in sorted(check.known_problems):
        print(f"# known defect of the seed code, not counted as failed (known_defects.json): {p}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(f"{'failed_fraction':44s} {failed / attempted:14.6g} ratio ({failed} of {attempted} CLI calls)")

    record = {
        "workload": workload.name, "seed": args.seed, "variant": variant, "trace": args.trace,
        "seconds": args.seconds, "env": env, "import_s": import_s,
        "reference_s": REFERENCE_S,
        "calls": [{"run_s": c.seconds, "setup_s": c.setup_seconds, "scale": c.scale,
                   "load": c.load, "overloaded": c.load > nproc, "problems": c.problems}
                  for c in calls],
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "known_defects": sorted(check.known_problems),
    }
    (out / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other, so that each
    reports its own peak resident set."""
    worst = 0
    for name in WORKLOADS:
        sys.stdout.flush()
        done = subprocess.run([
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, done.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args, Path.cwd())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
