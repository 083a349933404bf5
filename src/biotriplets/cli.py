"""Command-line entry point: one binary, one stage per subcommand.

Stages exchange JSONL files in the working directory so each can be rerun
and diffed independently: preprocess -> documents.jsonl, match ->
candidates.jsonl (pointing at sections of documents.jsonl, so match is
rerun after preprocess), extract -> triplets.jsonl + report, eval ->
metrics and agreement outputs. mock-serve hosts the deterministic
chat/embedding servers used by the test suite.

Each command imports the modules of its own stage when it runs, so a stage
process loads only its own layer on top of the config and the document
model: `preprocess` the HTML parser, `match` the matcher and the
candidates, `extract` those two and the classifier, retrieval, pipeline
and endpoint modules.

Exit codes: 0 success, 1 partial failure, 2 configuration error. A stage
raises ConfigError for an input it cannot use; `main` alone turns it into
one line on stderr and exit 2. An interrupt (Ctrl-C) is one line and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

from . import docmodel
from .config import Config, load_config
from .errors import ConfigError, DocumentError, EndpointRejected, EndpointUnavailable

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def _load_cfg(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if args.workdir:
        cfg.workdir = Path(args.workdir)
    try:
        cfg.workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create workdir {cfg.workdir}: {exc.strerror}") from None
    return cfg


def cmd_preprocess(args) -> int:
    cfg = _load_cfg(args)
    if cfg.manifest_path is None:
        raise ConfigError("no manifest configured (paths.manifest)")
    entries = docmodel.read_manifest(cfg.manifest_path)
    if not entries:
        print("warning: manifest is empty, nothing to do", file=sys.stderr)
    docs, failures = [], []
    for entry in entries:
        try:
            html = docmodel.read_html_file(entry.path)
            profile = cfg.site_profile(entry.site_id)
            docs.append(docmodel.preprocess_html(html, profile, entry.url))
        except (OSError, DocumentError) as exc:
            failures.append((entry.path, exc))
    for path, exc in failures:
        print(f"error: {path}: {exc}", file=sys.stderr)
    out = cfg.workdir / "documents.jsonl"
    if not _write_whole({out: lambda p: docmodel.write_documents(docs, p)}):
        return EXIT_PARTIAL
    print(f"wrote {len(docs)} documents to {out}")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_match(args) -> int:
    from . import matcher
    from .candidates import enumerate_candidates, write_candidates

    cfg = _load_cfg(args)
    if cfg.thesaurus_path is None:
        raise ConfigError("no thesaurus configured (paths.thesaurus)")
    docs = docmodel.read_documents(cfg.workdir / "documents.jsonl")
    # a row whose first token no section holds can neither match nor shadow
    tokens = matcher.corpus_tokens(
        section.text for doc in docs for section, _ in doc.walk_sections())
    thesaurus = matcher.load_thesaurus(cfg.thesaurus_path, tokens)
    print(f"loaded {len(thesaurus)} surfaces "
          f"({thesaurus.skipped_rows} rows skipped, "
          f"{thesaurus.skipped_short} too short, "
          f"{thesaurus.concept_conflicts} concept conflicts), "
          f"left out {thesaurus.unreachable} rows whose first token "
          "is in no document")
    automaton = matcher.MatcherAutomaton(thesaurus)
    candidates = enumerate_candidates(docs, automaton, cfg.relations)
    out = cfg.workdir / "candidates.jsonl"
    if not _write_whole({out: lambda p: write_candidates(candidates, p)}):
        return EXIT_PARTIAL
    counts = Counter((c.site_id, c.relation) for c in candidates)
    for (site, relation), count in sorted(counts.items()):
        print(f"{site} {relation}: {count} candidates")
    print(f"wrote {len(candidates)} candidates to {out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    from . import classifier, pipeline
    from .candidates import read_candidates

    if args.limit is not None and args.limit < 0:
        raise ConfigError(f"--limit must be at least 0, not {args.limit}")
    cfg = _load_cfg(args)
    candidates = read_candidates(cfg.workdir / "candidates.jsonl")
    relations = [r.id for r in cfg.relations]
    unconfigured = sorted({c.relation for c in candidates}.difference(relations))
    if unconfigured:
        raise ConfigError(f"{cfg.workdir / 'candidates.jsonl'} holds relation "
                          f"{', '.join(unconfigured)}, which the config does not list; "
                          "rerun match")
    documents = docmodel.read_documents(cfg.workdir / "documents.jsonl")
    exemplars = classifier.load_exemplars(cfg.exemplars_path, relations)
    chat = cfg.chat_endpoint()
    embedder = cfg.embedding_endpoint()
    journal_path = cfg.workdir / "journal.jsonl"
    try:
        classified = pipeline.run_extraction(
            candidates,
            documents,
            chat,
            embedder,
            cfg.retrieval,
            exemplars,
            cfg.relations,
            journal_path=journal_path,
            workers=cfg.workers,
            limit=args.limit,
            deterministic=args.deterministic,
        )
    except EndpointRejected as exc:
        print(f"error: {exc} (journal preserved)", file=sys.stderr)
        return EXIT_PARTIAL
    except (EndpointUnavailable, OSError) as exc:  # OSError: a journal or checkpoint write
        print(f"error: {exc} (journal preserved, rerun to resume)", file=sys.stderr)
        return EXIT_PARTIAL
    finally:
        chat.close()
        embedder.close()
    records = pipeline.Journal(journal_path).load()
    triplets, duplicates, report, malformed = pipeline.summarize(
        candidates, records, relations, cfg.site_priority)
    text = pipeline.report_table(report)
    outputs = {
        "triplets.jsonl": "".join(map(docmodel.json_line, triplets)),
        "report.txt": text + "\n",
        "report.json": json.dumps(report, indent=2, ensure_ascii=False) + "\n",
        "malformed.jsonl": "".join(map(docmodel.json_line, malformed)),
    }
    if not _write_whole(_text_writers(cfg.workdir, outputs)):
        return EXIT_PARTIAL
    print(text)
    print(f"{len(triplets)} triplets ({duplicates} cross-site duplicates removed), "
          f"{len(malformed)} malformed, {classified} candidates classified this run")
    return EXIT_OK


def _write_whole(writers: dict[Path, Callable[[Path], None]]) -> bool:
    """Write each output through its writer to `<name>.tmp`, then
    os.replace each over its output. A write that fails (a full disk, say)
    or is killed leaves every previous output as it was; only a failed or
    killed os.replace loop can mix old and new outputs. A failure prints
    one line, unlinks the temporary files written, and returns False."""
    partials = {out: out.with_name(out.name + ".tmp") for out in writers}
    written = []
    try:
        for out, write in writers.items():
            write(partials[out])
            written.append(partials[out])
        for out, partial in partials.items():
            os.replace(partial, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        for partial in written:
            partial.unlink(missing_ok=True)
        return False
    return True


def _text_writers(workdir: Path, outputs: dict[str, str]) -> dict:
    """`_write_whole`'s writers of each named output's text in `workdir`."""
    return {workdir / name: lambda p, body=body: p.write_text(body, encoding="utf-8")
            for name, body in outputs.items()}


def cmd_eval(args) -> int:
    from . import evaluation

    cfg = _load_cfg(args)
    try:
        samples = evaluation.load_benchmark(args.benchmark)
        model_ids = sorted({m for s in samples for m in s.predictions})
        confusions = [evaluation.confusion(samples, model) for model in model_ids]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    if not model_ids:
        print(f"error: {args.benchmark} holds no prediction", file=sys.stderr)
        return EXIT_PARTIAL
    reference = args.reference or model_ids[0]
    if reference not in model_ids:
        raise ConfigError(f"reference model {reference!r} not in benchmark")

    rows = [{"model": model,
             **{name: evaluation.round3(score)
                for name, score in evaluation.metrics(cm).items()},
             "confusion": vars(cm)}
            for model, cm in zip(model_ids, confusions)]
    header = f"{'Model':<16}{'Accuracy':>10}{'Recall':>10}{'Precision':>11}{'F1':>8}"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['model']:<16}{row['accuracy']:>10.3f}{row['recall']:>10.3f}"
            f"{row['precision']:>11.3f}{row['f1']:>8.3f}"
        )
    table = "\n".join(lines)
    agreement = evaluation.agreement_matrix(samples, reference)
    outputs = {
        "metrics.txt": table + "\n",
        "metrics.json": json.dumps(rows, indent=2) + "\n",
        "agreement.json": json.dumps(agreement, indent=2) + "\n",
    }
    if not _write_whole(_text_writers(cfg.workdir, outputs)):
        return EXIT_PARTIAL
    print(table)
    print(f"agreement matrix over {len(model_ids)} models "
          f"(reference: {reference}) written to {cfg.workdir / 'agreement.json'}")
    return EXIT_OK


def cmd_mock_serve(args) -> int:
    from .mockserver import MockScript, MockServer

    try:
        script = MockScript.from_file(args.script) if args.script else MockScript()
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"cannot read mock script {args.script}: {exc}") from None
    try:  # the server appends each request to the log: it must open before serving
        if args.log:
            open(args.log, "a").close()
    except OSError as exc:
        raise ConfigError(f"cannot open mock log {args.log}: {exc.strerror}") from None
    try:  # bind() raises OverflowError for a port outside 0-65535
        server = MockServer(script, log_path=args.log, port=args.port)
    except (OSError, OverflowError) as exc:
        raise ConfigError(f"cannot bind port {args.port}: {exc}") from None
    print(f"mock server listening on {server.base_url}")
    try:
        server.start().thread.join()
    except KeyboardInterrupt:
        server.stop()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biotriplets",
        description="Extract evidential relation triplets from semi-structured web articles.",
    )
    parser.add_argument("--config", help="path to the run configuration file")
    parser.add_argument("--workdir", help="override the working directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("preprocess", help="HTML files -> documents.jsonl").set_defaults(
        handler=cmd_preprocess)
    sub.add_parser("match", help="documents.jsonl -> candidates.jsonl").set_defaults(
        handler=cmd_match)

    p_extract = sub.add_parser(
        "extract", help="candidates.jsonl + documents.jsonl -> triplets.jsonl + report")
    p_extract.add_argument("--limit", type=int, default=None,
                           help="process at most N pending candidates this run")
    p_extract.add_argument("--deterministic", action="store_true",
                           help="leave latency_ms out of journal.jsonl, so that runs "
                                "against a deterministic endpoint journal the same "
                                "records, in completion order; their triplets.jsonl, "
                                "report.txt, report.json and malformed.jsonl are "
                                "byte-identical with or without this flag")
    p_extract.set_defaults(handler=cmd_extract)

    p_eval = sub.add_parser("eval", help="benchmark JSONL -> metrics + agreement")
    p_eval.add_argument("benchmark", help="benchmark JSONL file")
    p_eval.add_argument("--reference", default=None,
                        help="reference model for the malformed-label convention")
    p_eval.set_defaults(handler=cmd_eval)

    p_mock = sub.add_parser("mock-serve", help="run the deterministic mock endpoint")
    p_mock.add_argument("--script", default=None, help="canned-response script file")
    p_mock.add_argument("--port", type=int, default=0)
    p_mock.add_argument("--log", default=None, help="request log JSONL path")
    p_mock.set_defaults(handler=cmd_mock_serve)

    return parser


def main(argv=None) -> int:
    # built per call, so that a cmd_* replaced on this module is what runs
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:  # extract's workers have stopped by now
        hint = " (journal preserved, rerun to resume)" if args.command == "extract" else ""
        print(f"error: interrupted{hint}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
