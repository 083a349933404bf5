"""Run preprocess -> match -> extract in one process through biotriplets.cli.main.

Usage: python perfbench/inproc.py --config C --out RESULT.json [--trace]

With --trace, timing spans are installed on the public functions of each
layer before the stages run. A span records its name, start, end, parent
span and the page or candidate id it belongs to, plus a few counts taken
at the same boundary; spans stay in memory and are written to --out when
the run ends.

Each wrapper is installed on the name where the caller looks it up:
`pipeline` imports `match_terms`, `chunk_for_candidate`, `classify` and
friends by name, so those are wrapped in `biotriplets.pipeline`, not in
their defining modules. A target that no longer exists is reported as
missing, and the metrics built on it are reported absent.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import traceback

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _prompt_chars(args, kwargs, result):
    return {"chars": sum(len(m["content"]) for m in result.to_messages())}


class Tracer:
    """Collects spans from every thread; the parent is the innermost open
    span of the same thread, and the key is inherited from it."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._seen_texts: set[int] = set()
        self._lock = threading.Lock()

    def _embed_info(self, args, kwargs, result):
        texts = _arg(args, kwargs, 1, "texts")
        with self._lock:
            before = len(self._seen_texts)
            self._seen_texts.update(hash(t) for t in texts)
            new = len(self._seen_texts) - before
        return {"inputs": len(texts), "new": new}

    def targets(self):
        """(span name, module, attribute path, key fn, info fn, measure rss)."""
        return [
            ("cli.preprocess", "biotriplets.cli", "cmd_preprocess", None, None, False),
            ("cli.match", "biotriplets.cli", "cmd_match", None, None, False),
            ("cli.extract", "biotriplets.cli", "cmd_extract", None, None, False),
            ("docmodel.preprocess_html", "biotriplets.docmodel", "preprocess_html",
             lambda a, k: _arg(a, k, 2, "url"), None, False),
            ("docmodel.read_documents", "biotriplets.docmodel", "read_documents",
             None, None, False),
            ("docmodel.write_documents", "biotriplets.docmodel", "write_documents",
             None, None, False),
            ("matcher.load_thesaurus", "biotriplets.matcher", "load_thesaurus",
             None, None, False),
            ("matcher.build", "biotriplets.matcher", "MatcherAutomaton.__init__",
             None, None, True),
            ("matcher.match_terms", "biotriplets.pipeline", "match_terms", None,
             lambda a, k, r: {"chars": len(_arg(a, k, 1, "text")), "matches": len(r)},
             False),
            ("matcher.semantic_filter", "biotriplets.pipeline", "semantic_filter",
             None, lambda a, k, r: {"kept": len(r)}, False),
            ("pipeline.enumerate_candidates", "biotriplets.pipeline",
             "enumerate_candidates", None, lambda a, k, r: {"candidates": len(r)}, False),
            ("pipeline.write_candidates", "biotriplets.pipeline", "write_candidates",
             None, None, False),
            ("pipeline.read_candidates", "biotriplets.pipeline", "read_candidates",
             None, None, False),
            ("pipeline.run_extraction", "biotriplets.pipeline", "run_extraction",
             None, None, False),
            ("pipeline.journal.load", "biotriplets.pipeline", "Journal.load",
             None, None, False),
            ("pipeline.journal.append", "biotriplets.pipeline", "Journal.append",
             None, None, False),
            ("pipeline.candidate", "biotriplets.pipeline", "_process_candidate",
             lambda a, k: _arg(a, k, 0, "candidate").candidate_id, None, False),
            ("retrieval.chunk", "biotriplets.pipeline", "chunk_for_candidate",
             None, lambda a, k, r: {"chunks": len(r)}, False),
            ("retrieval.embed", "biotriplets.retrieval", "EmbeddingEndpoint.embed",
             None, self._embed_info, False),
            ("retrieval.rank", "biotriplets.pipeline", "retrieve_top_k",
             None, None, False),
            ("classifier.classify", "biotriplets.pipeline", "classify",
             None, None, False),
            ("classifier.prompt", "biotriplets.classifier", "build_prompt",
             None, _prompt_chars, False),
            ("classifier.chat", "biotriplets.classifier", "ChatEndpoint.complete",
             None, None, False),
            ("classifier.parse", "biotriplets.classifier", "parse_judgment", None,
             lambda a, k, r: {"malformed": int(r.answer == "Malformed")}, False),
        ]

    def wrap(self, fn, name, key_fn, info_fn, measure_rss):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            key = key_fn(args, kwargs) if key_fn else None
            if key is None and parent is not None:
                key = parent[1]
            span_id = next(self._ids)
            stack.append((span_id, key))
            rss0 = rss_bytes() if measure_rss else 0
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = {"rss_delta": rss_bytes() - rss0} if measure_rss else {}
                if info_fn is not None and result is not None:
                    try:
                        info.update(info_fn(args, kwargs, result))
                    except Exception:  # a changed signature loses the counts only
                        pass
                self.spans.append([span_id, name, start, end,
                                   parent[0] if parent else None, key, info])

        return traced

    def install(self) -> None:
        for name, module, path, key_fn, info_fn, rss in self.targets():
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            setattr(owner, attr, self.wrap(original, name, key_fn, info_fn, rss))


def run_stages(invoke, max_extract_runs: int = 3) -> list[list]:
    """preprocess, match, then extract until it stops exiting 1 (partial
    failure, journal kept): the resume the README tells users to do.
    Returns [stage, exit code] pairs."""
    exits = [["preprocess", invoke(["preprocess"])], ["match", invoke(["match"])]]
    for _ in range(max_extract_runs):
        code = invoke(["extract", "--deterministic"])
        exits.append(["extract", code])
        if code != 1:
            break
    return exits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import biotriplets.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    if args.trace:
        tracer.install()
    walls: list[float] = []

    def invoke(argv):
        start = time.perf_counter()
        try:
            code = cli.main(["--config", args.config, *argv])
        except Exception:  # the interpreter would print it and exit 1
            traceback.print_exc()
            code = 1
        walls.append(time.perf_counter() - start)
        return code

    exits = run_stages(invoke)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "import_s": import_s,
            "wall_s": sum(walls),
            "exits": exits,
            "spans": tracer.spans,
            "missing": tracer.missing,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
