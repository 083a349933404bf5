import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
INPROC = PERFBENCH / "inproc.py"
WORKLOADS = PERFBENCH / "workloads.py"

# `match` no longer loads pipeline, where the benchmark still looks for these
# targets; they stay absent until it looks in candidates and matcher
# (ROADMAP item 1a), and no other target may be
ABSENT_MATCH_TARGETS = ["matcher.match_terms", "matcher.semantic_filter",
                        "pipeline.enumerate_candidates", "pipeline.write_candidates",
                        "pipeline.read_candidates"]


def test_every_traced_name_resolves():
    # a renamed or deleted function would make its metrics absent in the
    # benchmark; here it fails the suite instead
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    missing = []
    for name, module, path, *_ in inproc.Tracer().targets():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module}.{path}")
    assert [m.partition(":")[0] for m in missing] == ABSENT_MATCH_TARGETS


def test_workload_questions_are_the_pipelines(monkeypatch):
    # the remote-outage fault rules match prompts by these questions; if
    # they drifted apart, no fault would fire and the benchmark would fail
    from biotriplets.config import DEFAULT_RELATIONS

    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    assert workloads.RELATION_ORDER == [r.id for r in DEFAULT_RELATIONS]
    for r in DEFAULT_RELATIONS:
        assert workloads.DEFAULT_SEMANTIC_TYPES[r.id] == r.allowed_semantic_types
        question = r.question("yoheadterm", "Tail Title")
        assert workloads.build_query("yoheadterm", r.id, "Tail Title") == question
        assert question.startswith(workloads.QUESTION_PREFIX + "yoheadterm ")
