"""Per-layer metrics computed from the spans of one traced run.

A span is [id, name, start, end, parent id, page/candidate key, info].
The parent is the innermost open span of the same thread, so work done on
extract's worker threads has no parent: a layer's self time is the time
its spans do not spend in their own (same-thread) children, and
`pipeline.self_s` includes run_extraction waiting on its workers.

A metric whose spans come from a target the traced run could not find
(the function was renamed or deleted) is absent: it is reported as 0 and
listed by name, instead of failing the run.
"""

from __future__ import annotations

from collections import defaultdict

MIB = 1024 * 1024
LAYERS = ("cli", "docmodel", "matcher", "pipeline", "retrieval", "classifier")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Spans:
    def __init__(self, spans: list[list]):
        self.by_name: dict[str, list[list]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            self.by_name[span[1]].append(span)
            if span[4] is not None:
                child_time[span[4]] += span[3] - span[2]
        self.self_time = {s[0]: s[3] - s[2] - child_time[s[0]] for s in spans}

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.by_name[name]]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def info(self, name: str, key: str) -> float:
        return sum(s[6].get(key, 0) for s in self.by_name[name])

    def self_total(self, prefix: str) -> float:
        return sum(
            self.self_time[s[0]]
            for name, spans in self.by_name.items()
            if name == prefix or name.startswith(prefix + ".")
            for s in spans
        )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(
    spans: list[list],
    missing: list[str],
    *,
    import_s: float,
    workers: int,
    files: dict[str, int],
    standin: dict,
    standin_cpu_s: float,
    overhead_share: float,
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Every per-layer metric as name -> (value, unit), plus the names of
    those that are absent."""
    s = Spans(spans)
    ms = 1000.0
    # name, unit, spans it needs, value
    rows = [
        ("cli.import_s", "s", (), lambda: import_s),
        ("docmodel.preprocess_stage_s", "s", ("cli.preprocess",),
         lambda: s.total("cli.preprocess")),
        ("docmodel.preprocess_html.calls", "count", ("docmodel.preprocess_html",),
         lambda: s.calls("docmodel.preprocess_html")),
        ("docmodel.preprocess_html.p50_ms", "ms", ("docmodel.preprocess_html",),
         lambda: percentile(s.durations("docmodel.preprocess_html"), 50) * ms),
        ("docmodel.preprocess_html.p95_ms", "ms", ("docmodel.preprocess_html",),
         lambda: percentile(s.durations("docmodel.preprocess_html"), 95) * ms),
        ("docmodel.documents_bytes", "bytes", (), lambda: files["documents.jsonl"]),
        ("matcher.load_thesaurus_s", "s", ("matcher.load_thesaurus",),
         lambda: s.total("matcher.load_thesaurus")),
        ("matcher.build_s", "s", ("matcher.build",), lambda: s.total("matcher.build")),
        ("matcher.build_rss_mib", "MiB", ("matcher.build",),
         lambda: s.info("matcher.build", "rss_delta") / MIB),
        ("matcher.match_terms.calls", "count", ("matcher.match_terms",),
         lambda: s.calls("matcher.match_terms")),
        ("matcher.match_terms.total_s", "s", ("matcher.match_terms",),
         lambda: s.total("matcher.match_terms")),
        ("matcher.match_terms.chars_per_s", "1/s", ("matcher.match_terms",),
         lambda: _ratio(s.info("matcher.match_terms", "chars"),
                        s.total("matcher.match_terms"))),
        ("matcher.matches", "count", ("matcher.match_terms",),
         lambda: s.info("matcher.match_terms", "matches")),
        ("matcher.semantic_filter.kept_ratio", "ratio",
         ("matcher.semantic_filter", "matcher.match_terms"),
         lambda: _ratio(s.info("matcher.semantic_filter", "kept"),
                        s.info("matcher.match_terms", "matches"))),
        ("pipeline.enumerate_candidates.self_s", "s", ("pipeline.enumerate_candidates",),
         lambda: s.self_total("pipeline.enumerate_candidates")),
        ("pipeline.candidates", "count", ("pipeline.enumerate_candidates",),
         lambda: s.info("pipeline.enumerate_candidates", "candidates")),
        ("pipeline.candidates_per_section", "ratio",
         ("pipeline.enumerate_candidates", "matcher.match_terms"),
         lambda: _ratio(s.info("pipeline.enumerate_candidates", "candidates"),
                        s.calls("matcher.match_terms"))),
        ("pipeline.write_candidates_s", "s", ("pipeline.write_candidates",),
         lambda: s.total("pipeline.write_candidates")),
        ("pipeline.candidates_bytes", "bytes", (), lambda: files["candidates.jsonl"]),
        ("pipeline.read_candidates_s", "s", ("pipeline.read_candidates",),
         lambda: s.total("pipeline.read_candidates")),
        ("pipeline.journal.load_s", "s", ("pipeline.journal.load",),
         lambda: s.total("pipeline.journal.load")),
        ("pipeline.journal.append.calls", "count", ("pipeline.journal.append",),
         lambda: s.calls("pipeline.journal.append")),
        ("pipeline.journal.append.total_s", "s", ("pipeline.journal.append",),
         lambda: s.total("pipeline.journal.append")),
        ("pipeline.candidate.p50_ms", "ms", ("pipeline.candidate",),
         lambda: percentile(s.durations("pipeline.candidate"), 50) * ms),
        ("pipeline.candidate.p99_ms", "ms", ("pipeline.candidate",),
         lambda: percentile(s.durations("pipeline.candidate"), 99) * ms),
        ("pipeline.worker_busy_share", "ratio", ("pipeline.candidate", "cli.extract"),
         lambda: _ratio(s.total("pipeline.candidate"),
                        workers * s.total("cli.extract"))),
        ("pipeline.report_s", "s", ("cli.extract", "pipeline.run_extraction"),
         lambda: _report_s(s)),
        ("retrieval.chunk.total_s", "s", ("retrieval.chunk",),
         lambda: s.total("retrieval.chunk")),
        ("retrieval.chunks_per_candidate", "ratio", ("retrieval.chunk",),
         lambda: _ratio(s.info("retrieval.chunk", "chunks"), s.calls("retrieval.chunk"))),
        ("retrieval.embed.calls", "count", ("retrieval.embed",),
         lambda: s.calls("retrieval.embed")),
        ("retrieval.embed.total_s", "s", ("retrieval.embed",),
         lambda: s.total("retrieval.embed")),
        ("retrieval.embed.p50_ms", "ms", ("retrieval.embed",),
         lambda: percentile(s.durations("retrieval.embed"), 50) * ms),
        ("retrieval.embed.p95_ms", "ms", ("retrieval.embed",),
         lambda: percentile(s.durations("retrieval.embed"), 95) * ms),
        ("retrieval.embed.inputs", "count", ("retrieval.embed",),
         lambda: s.info("retrieval.embed", "inputs")),
        ("retrieval.embed.unique_ratio", "ratio", ("retrieval.embed",),
         lambda: _ratio(s.info("retrieval.embed", "new"),
                        s.info("retrieval.embed", "inputs"))),
        ("retrieval.rank.total_s", "s", ("retrieval.rank",),
         lambda: s.total("retrieval.rank")),
        ("classifier.prompt.total_s", "s", ("classifier.prompt",),
         lambda: s.total("classifier.prompt")),
        ("classifier.prompt_chars", "count", ("classifier.prompt",),
         lambda: s.info("classifier.prompt", "chars")),
        ("classifier.parse.total_s", "s", ("classifier.parse",),
         lambda: s.total("classifier.parse")),
        ("classifier.chat.calls", "count", ("classifier.chat",),
         lambda: s.calls("classifier.chat")),
        ("classifier.chat.total_s", "s", ("classifier.chat",),
         lambda: s.total("classifier.chat")),
        ("classifier.chat.p50_ms", "ms", ("classifier.chat",),
         lambda: percentile(s.durations("classifier.chat"), 50) * ms),
        ("classifier.chat.p95_ms", "ms", ("classifier.chat",),
         lambda: percentile(s.durations("classifier.chat"), 95) * ms),
        ("classifier.chat.retries", "count", ("classifier.chat",),
         lambda: standin.get("chat.requests", 0) - s.calls("classifier.chat")),
        ("classifier.malformed", "count", ("classifier.parse",),
         lambda: s.info("classifier.parse", "malformed")),
    ]
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s", (), lambda layer=layer: s.self_total(layer)))
    for kind, status in STANDIN_STATUSES:
        key = f"{kind}.status_{status}"
        rows.append((f"mockserver.{key}", "count", (), lambda key=key: standin.get(key, 0)))
    rows.append(("mockserver.cpu_s", "s", (), lambda: standin_cpu_s))
    rows.append(("trace.overhead_share", "ratio", (), lambda: overhead_share))

    metrics, absent = {}, []
    for name, unit, needs, value in rows:
        if any(n in missing for n in needs):
            absent.append(name)
            metrics[name] = (0, unit)
        else:
            metrics[name] = (value(), unit)
    return metrics, absent


# stand-in reply statuses reported on every workload (0 where none occur)
STANDIN_STATUSES = (("chat", 200), ("chat", 429), ("chat", 503), ("embed", 200))


def _report_s(s: Spans) -> float:
    """Time each extract spends after run_extraction returns: dedupe,
    render and write of triplets and reports."""
    runs = s.by_name["pipeline.run_extraction"]
    total = 0.0
    for ext in s.by_name["cli.extract"]:
        ends = [r[3] for r in runs if ext[2] <= r[2] and r[3] <= ext[3]]
        if ends:
            total += ext[3] - max(ends)
    return total
