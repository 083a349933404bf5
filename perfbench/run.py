"""End-to-end benchmark of the biotriplets pipeline.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload's corpus, thesaurus
and chat script are generated from the seed under .perfbench/, and an
endpoint stand-in (perfbench/standin.py) serves the package's mock handler
from its own process, so it does not share the client's interpreter lock.
All processes of a run share one CPU (see main), so the stages' wall times
include the stand-in's CPU time, which is reported as standin_cpu_s.

--trace 0 repeats the pipeline for --seconds: each iteration starts a fresh
stand-in, times `match` over an empty document set (setup_s), then runs the
real CLI stages `preprocess`, `match` and `extract` (rerun while it exits 1)
as child processes, timed with os.wait4 so CPU and peak RSS come from
rusage. The end-to-end metrics are medians over the iterations.

--trace 1 runs the same stages three times, in one process each, through
biotriplets.cli.main (perfbench/inproc.py): plain, with timing spans on
every layer, and plain again. It reports the per-layer metrics and the
tracing overhead against the plain runs.

Every run checks the outputs against what the generator planted; the last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. failed/attempted is the failed share: candidates left
without a journal record, pages that failed preprocess and stage exits
outside the workload's script, over candidates + pages + stage runs.
The run directory under .perfbench/ is deleted, unless a check or the run
failed: then it is kept and its path printed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
if not (ROOT / "src" / "biotriplets" / "cli.py").is_file():
    sys.exit("error: run from the root of a biotriplets checkout (no src/biotriplets)")
# the generator takes the relation types and the question from the package
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
from inproc import run_stages  # noqa: E402
from workloads import WORKLOADS, Inputs, generate, write_config  # noqa: E402

MIB = 1024 * 1024
WORKERS = min(2, os.cpu_count() or 1)
RUN_BUDGET_S = 160.0  # a run must end within 180 s


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout()


def wait4(proc: subprocess.Popen, timeout: float):
    """Reap `proc` with its rusage; kill it if it outlives `timeout`."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


@dataclass
class Context:
    root: Path            # checkout root
    rundir: Path
    inputs: Inputs
    deadline: float
    env: dict = field(default_factory=dict)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def stderr(self):
        return open(self.rundir / "stderr.log", "a", encoding="utf-8")


class StandIn:
    """The endpoint stand-in process for one pipeline run."""

    def __init__(self, ctx: Context, tag: str):
        self.counts_path = ctx.rundir / f"{tag}.counts.json"
        with ctx.stderr() as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "standin.py"),
                 "--script", str(ctx.inputs.script),
                 "--counts", str(self.counts_path),
                 "--delays", ",".join(str(d) for d in ctx.inputs.delays)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=ctx.env, text=True,
            )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.proc.kill()
            wait4(self.proc, 10)
            raise RuntimeError("endpoint stand-in did not start; see stderr.log")
        self.url = f"http://127.0.0.1:{line[1]}"
        self.counts: dict = {}
        self.cpu_s = 0.0

    def stop(self) -> None:
        if self.proc.returncode is not None:
            return
        self.proc.stdin.close()
        code, usage = wait4(self.proc, 30)
        self.proc.stdout.close()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        if code == 0:
            self.counts = json.loads(self.counts_path.read_text(encoding="utf-8"))

    def __enter__(self) -> "StandIn":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class StageRun:
    stage: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float


def run_cli(ctx: Context, config: Path, argv: list[str], stage: str) -> StageRun:
    cmd = [sys.executable, "-m", "biotriplets.cli", "--config", str(config), *argv]
    with ctx.stderr() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env,
                                stdout=subprocess.DEVNULL, stderr=err)
        code, usage = wait4(proc, ctx.remaining())
        wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    return StageRun(stage, code, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# Output checks.


@dataclass
class Check:
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def add(self, other: "Check") -> None:
        self.problems += other.problems
        self.failed += other.failed
        self.attempted += other.attempted


def _lines(path: Path) -> list[str]:
    if not path.exists():
        return []
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_run(inputs: Inputs, workdir: Path, exits: list[list], counts: dict) -> Check:
    """Compare one pipeline run's outputs with what the generator planted."""
    c = Check()
    script = [["preprocess", 0], ["match", 0]] + [
        ["extract", code] for code in inputs.expected_extract_exits
    ]
    unscripted = sum(a != b for a, b in zip(exits, script)) + abs(len(exits) - len(script))
    c.expect(unscripted == 0, f"stage exits {exits}, script {script}")

    docs = len(_lines(workdir / "documents.jsonl"))
    c.expect(docs == inputs.pages, f"{docs} documents from {inputs.pages} pages")

    candidates = [json.loads(line)["candidate_id"]
                  for line in _lines(workdir / "candidates.jsonl")]
    c.expect(len(candidates) == inputs.candidates,
             f"{len(candidates)} candidates, {inputs.candidates} planted")
    records: dict[str, int] = {}
    for line in _lines(workdir / "journal.jsonl"):
        cid = json.loads(line)["candidate_id"]
        records[cid] = records.get(cid, 0) + 1
    missing = sum(1 for cid in candidates if cid not in records)
    repeated = sum(1 for n in records.values() if n > 1)
    c.expect(missing == 0 and repeated == 0,
             f"{missing} candidates without and {repeated} with several journal records")

    ok_chats = counts.get("chat.status_200", 0)
    c.expect(ok_chats == len(candidates),
             f"{ok_chats} successful chat requests for {len(candidates)} candidates")
    chats = counts.get("chat.requests", 0)
    c.expect(chats == len(candidates) + inputs.scripted_failures,
             f"{chats} chat requests, expected {len(candidates)} + "
             f"{inputs.scripted_failures} scripted failures")

    triplets = sorted(json.dumps(json.loads(line), sort_keys=True)
                      for line in _lines(workdir / "triplets.jsonl"))
    c.expect(triplets == inputs.triplets,
             f"{len(triplets)} triplets, {len(inputs.triplets)} planted as Yes")

    c.failed = missing + max(0, inputs.pages - docs) + unscripted
    c.attempted = len(candidates) + inputs.pages + len(exits)
    return c


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Untraced end-to-end iterations.


def iteration(ctx: Context, n: int) -> tuple[dict, Check]:
    workdir = ctx.rundir / f"it{n}"
    workdir.mkdir()
    empty = ctx.rundir / f"it{n}-empty"
    empty.mkdir()
    (empty / "documents.jsonl").write_text("", encoding="utf-8")

    with StandIn(ctx, f"it{n}") as standin:
        config = write_config(ctx.inputs, workdir, standin.url, WORKERS)
        setup = run_cli(ctx, config, ["--workdir", str(empty), "match"], "setup")
        runs: list[StageRun] = []

        def invoke(argv):
            runs.append(run_cli(ctx, config, argv, argv[0]))
            return runs[-1].code

        exits = run_stages(invoke)
    check = check_run(ctx.inputs, workdir, exits, standin.counts)
    check.expect(setup.code == 0, f"setup probe exited {setup.code}")
    extracts = [r for r in runs if r.stage == "extract"]
    metrics = {
        "setup_s": setup.wall_s,
        "pipeline_s": sum(r.wall_s for r in runs),
        "match_s": sum(r.wall_s for r in runs if r.stage == "match"),
        "extract_s": sum(r.wall_s for r in extracts),
        "extract_cpu_s": sum(r.cpu_s for r in extracts),
        "peak_rss_mib": max(r.rss_mib for r in runs),
        "workdir_mib": dir_bytes(workdir) / MIB,
        "chat_requests": standin.counts.get("chat.requests", 0),
        "embed_requests": standin.counts.get("embed.requests", 0),
        "embed_inputs": standin.counts.get("embed.inputs", 0),
        "standin_cpu_s": standin.cpu_s,
    }
    shutil.rmtree(empty)
    return metrics, check


UNITS = {
    "setup_s": "s", "pipeline_s": "s", "match_s": "s", "extract_s": "s",
    "extract_cpu_s": "s", "peak_rss_mib": "MiB", "workdir_mib": "MiB",
    "chat_requests": "count", "embed_requests": "count", "embed_inputs": "count",
    "standin_cpu_s": "s",
}


def untraced(ctx: Context, seconds: float) -> tuple[dict, Check]:
    samples: dict[str, list[float]] = {name: [] for name in UNITS}
    total = Check()
    start = time.perf_counter()
    n = 0
    while True:
        metrics, check = iteration(ctx, n)
        total.add(check)
        for name, value in metrics.items():
            samples[name].append(value)
        print(f"iteration {n}: " + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()))
        if not check.problems:
            shutil.rmtree(ctx.rundir / f"it{n}")
        n += 1
        elapsed = time.perf_counter() - start
        mean = elapsed / n  # start another only if it should end within --seconds
        if elapsed + mean > seconds or ctx.remaining() < 2 * mean:
            break
    print(f"{n} iterations in {time.perf_counter() - start:.1f} s")
    return {name: statistics.median(v) for name, v in samples.items()}, total


# ---------------------------------------------------------------------------
# In-process runs, plain and traced.


def inproc(ctx: Context, tag: str, trace: bool) -> tuple[dict, Path, StandIn, Check]:
    workdir = ctx.rundir / tag
    workdir.mkdir()
    out = ctx.rundir / f"{tag}.json"
    with StandIn(ctx, tag) as standin:
        config = write_config(ctx.inputs, workdir, standin.url, WORKERS)
        cmd = [sys.executable, str(HERE / "inproc.py"), "--config", str(config),
               "--out", str(out)] + (["--trace"] if trace else [])
        with ctx.stderr() as err:
            proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            code, _ = wait4(proc, ctx.remaining())
    if code != 0 or not out.exists():
        raise RuntimeError(f"in-process {tag} run exited {code}; see stderr.log")
    result = json.loads(out.read_text(encoding="utf-8"))
    return result, workdir, standin, check_run(ctx.inputs, workdir, result["exits"],
                                               standin.counts)


def traced(ctx: Context) -> tuple[dict, Check]:
    """Plain, traced, plain again: the overhead compares the traced run with
    the mean of the plain runs on either side of it, which cancels a steady
    drift in the host's speed."""
    before, plain_dir, _, total = inproc(ctx, "plain", trace=False)
    result, workdir, standin, check = inproc(ctx, "traced", trace=True)
    total.add(check)
    after, _, _, check = inproc(ctx, "plain-again", trace=False)
    total.add(check)
    for name in ("triplets.jsonl", "report.json"):
        total.expect((plain_dir / name).read_bytes() == (workdir / name).read_bytes(),
                     f"{name} differs between the untraced and traced runs")
    plain_s = (before["wall_s"] + after["wall_s"]) / 2
    metrics, absent = layers.per_layer(
        result["spans"], result["missing"],
        import_s=result["import_s"],
        workers=WORKERS,
        files={name: (workdir / name).stat().st_size
               for name in ("documents.jsonl", "candidates.jsonl")},
        standin=standin.counts,
        standin_cpu_s=standin.cpu_s,
        overhead_share=result["wall_s"] / plain_s - 1.0,
    )
    if absent:
        print("absent (traced function not found): " + ", ".join(absent))
    print(f"traced {result['wall_s']:.3f} s, plain {plain_s:.3f} s (mean of two), "
          f"{len(result['spans'])} spans")
    return metrics, total


# ---------------------------------------------------------------------------


def environment(root: Path) -> str:
    """What the numbers depend on besides the code: cores, interpreter, and
    whether numba is there (without it only the pure-Python matcher runs)."""
    numba = "present" if importlib.util.find_spec("numba") else "absent"
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in (root / "src").rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numba={numba} src_lines={src_lines}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Every process of the run (stages, stand-in) shares one CPU. On a shared
    # two-vCPU host, a stand-in on the other CPU made each request wake an
    # idle vCPU, and the wall times followed the host's steal: long-sections
    # extract_s took 2.7 s at 2% steal and 5.0 s at 21%.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rundir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    try:
        inputs = generate(args.workload, args.seed, rundir / "inputs")
        ctx = Context(ROOT, rundir, inputs, started + RUN_BUDGET_S, env)
        # compile the package's bytecode once; users pay that only once too
        subprocess.run([sys.executable, "-c", "import biotriplets.cli"],
                       cwd=ROOT, env=env, check=True, timeout=60)
        print(environment(ROOT))
        print(f"{args.workload} seed {args.seed}: {inputs.pages} pages, "
              f"{inputs.surfaces} surfaces ({inputs.tail_surfaces} over 100 chars), "
              f"{inputs.candidates} candidates, {len(inputs.triplets)} planted Yes, "
              f"{inputs.scripted_failures} scripted chat failures")
        if args.trace:
            metrics, check = traced(ctx)
            named = metrics
        else:
            medians, check = untraced(ctx, args.seconds)
            named = {k: (v, UNITS[k]) for k, v in medians.items()}
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        log = rundir / "stderr.log"
        if log.exists():
            sys.stderr.write(log.read_text(encoding="utf-8")[-4000:])
        print(f"run directory kept: {rundir}", file=sys.stderr)
        return 1

    for problem in check.problems:
        print(f"check failed: {problem}")
    if check.problems:
        print(f"run directory kept: {rundir}")
    else:
        shutil.rmtree(rundir)
    for name, (value, unit) in named.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not check.problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
