"""Command-line entry point: one binary, one stage per subcommand.

Stages exchange JSONL files in the working directory so each can be rerun
and diffed independently: preprocess -> documents.jsonl, match ->
candidates.jsonl (pointing at sections of documents.jsonl, so match is
rerun after preprocess), extract -> triplets.jsonl + report, eval ->
metrics and agreement outputs. mock-serve hosts the deterministic
chat/embedding servers used by the test suite.

Exit codes: 0 success, 1 partial failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from . import classifier, docmodel, evaluation, matcher, pipeline
from .config import Config, load_config
from .errors import (
    BiotripletsError,
    ConfigError,
    EmptyDictionary,
    EndpointRejected,
    EndpointUnavailable,
    FileUnreadable,
    FormatError,
)
from .mockserver import MockScript, MockServer

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def _load_cfg(args) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if args.workdir:
        cfg.workdir = Path(args.workdir)
    cfg.workdir.mkdir(parents=True, exist_ok=True)
    return cfg


def cmd_preprocess(args) -> int:
    cfg = _load_cfg(args)
    if cfg.manifest_path is None:
        print("error: no manifest configured (paths.manifest)", file=sys.stderr)
        return EXIT_CONFIG
    entries = docmodel.read_manifest(cfg.manifest_path)
    if not entries:
        print("warning: manifest is empty, nothing to do", file=sys.stderr)
        docmodel.write_documents([], cfg.workdir / "documents.jsonl")
        return EXIT_OK
    docs, failures = [], []
    for entry in entries:
        try:
            html = docmodel.read_html_file(entry["path"])
            profile = cfg.site_profile(entry["site_id"])
            docs.append(docmodel.preprocess_html(html, profile, entry["url"]))
        except (OSError, KeyError, BiotripletsError) as exc:
            failures.append((entry.get("path", "?"), exc))
    out = cfg.workdir / "documents.jsonl"
    docmodel.write_documents(docs, out)
    print(f"wrote {len(docs)} documents to {out}")
    if failures:
        for path, exc in failures:
            print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_match(args) -> int:
    cfg = _load_cfg(args)
    if cfg.thesaurus_path is None:
        print("error: no thesaurus configured (paths.thesaurus)", file=sys.stderr)
        return EXIT_CONFIG
    documents_path = cfg.workdir / "documents.jsonl"
    if not documents_path.exists():
        print(f"error: {documents_path} not found; rerun preprocess", file=sys.stderr)
        return EXIT_CONFIG
    try:
        thesaurus = matcher.load_thesaurus(cfg.thesaurus_path)
        print(f"loaded {len(thesaurus)} surfaces "
              f"({thesaurus.skipped_rows} rows skipped, "
              f"{thesaurus.skipped_short} too short)")
        automaton = matcher.MatcherAutomaton(thesaurus)
    except (FileUnreadable, FormatError, EmptyDictionary) as exc:
        print(f"error: thesaurus {cfg.thesaurus_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    docs = docmodel.read_documents(documents_path)
    candidates = pipeline.enumerate_candidates(docs, automaton, cfg.relations)
    out = cfg.workdir / "candidates.jsonl"
    pipeline.write_candidates(candidates, out)
    counts = Counter((c.site_id, c.relation) for c in candidates)
    for (site, relation), count in sorted(counts.items()):
        print(f"{site} {relation}: {count} candidates")
    print(f"wrote {len(candidates)} candidates to {out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    cfg = _load_cfg(args)
    for name in ("candidates.jsonl", "documents.jsonl"):
        if not (cfg.workdir / name).exists():
            print(f"error: {cfg.workdir / name} not found; rerun preprocess and match",
                  file=sys.stderr)
            return EXIT_CONFIG
    candidates = pipeline.read_candidates(cfg.workdir / "candidates.jsonl")
    documents = docmodel.read_documents(cfg.workdir / "documents.jsonl")
    try:
        exemplars = classifier.load_exemplars(
            cfg.exemplars_path, [r.id for r in cfg.relations])
        chat = cfg.chat_endpoint()
        embedder = cfg.embedding_endpoint()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = pipeline.run_extraction(
            candidates,
            documents,
            chat,
            embedder,
            cfg.retrieval,
            exemplars,
            journal_path=cfg.workdir / "journal.jsonl",
            relations=[r.id for r in cfg.relations],
            workers=cfg.workers,
            limit=args.limit,
            deterministic=args.deterministic,
        )
    except EndpointRejected as exc:
        print(f"error: {exc} (journal preserved)", file=sys.stderr)
        return EXIT_PARTIAL
    except EndpointUnavailable as exc:
        print(f"error: {exc} (journal preserved, rerun to resume)", file=sys.stderr)
        return EXIT_PARTIAL
    finally:
        chat.close()
        embedder.close()
    deduped, duplicates = pipeline.dedupe_triplets(result.triplets, cfg.site_priority)
    pipeline.write_triplets(deduped, cfg.workdir / "triplets.jsonl")
    text, as_dict = pipeline.render_report(result.report)
    (cfg.workdir / "report.txt").write_text(text + "\n", encoding="utf-8")
    (cfg.workdir / "report.json").write_text(
        json.dumps(as_dict, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    with open(cfg.workdir / "malformed.jsonl", "w", encoding="utf-8") as fh:
        for rec in result.malformed:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    print(text)
    print(f"{len(deduped)} triplets ({duplicates} cross-site duplicates removed), "
          f"{len(result.malformed)} malformed, "
          f"{result.classified} candidates classified this run")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    try:
        samples = evaluation.load_benchmark(args.benchmark)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    if not samples:
        print("error: benchmark is empty", file=sys.stderr)
        return EXIT_PARTIAL
    model_ids = sorted({m for s in samples for m in s.predictions})
    reference = args.reference or cfg.chat.get("reference_model") or model_ids[0]
    if reference not in model_ids:
        print(f"error: reference model {reference!r} not in benchmark", file=sys.stderr)
        return EXIT_CONFIG

    rows = []
    for model in model_ids:
        cm = evaluation.confusion(samples, model)
        m = evaluation.metrics(cm)
        rows.append({
            "model": model,
            "accuracy": evaluation.round3(m.accuracy),
            "recall": evaluation.round3(m.recall),
            "precision": evaluation.round3(m.precision),
            "f1": evaluation.round3(m.f1),
            "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
        })
    header = f"{'Model':<16}{'Accuracy':>10}{'Recall':>10}{'Precision':>11}{'F1':>8}"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['model']:<16}{row['accuracy']:>10.3f}{row['recall']:>10.3f}"
            f"{row['precision']:>11.3f}{row['f1']:>8.3f}"
        )
    table = "\n".join(lines)
    print(table)

    agreement = evaluation.agreement_matrix(samples, reference)
    (cfg.workdir / "metrics.txt").write_text(table + "\n", encoding="utf-8")
    (cfg.workdir / "metrics.json").write_text(
        json.dumps(rows, indent=2) + "\n", encoding="utf-8"
    )
    (cfg.workdir / "agreement.json").write_text(
        json.dumps(agreement.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    print(f"agreement matrix over {len(agreement.model_ids)} models "
          f"(reference: {reference}) written to {cfg.workdir / 'agreement.json'}")
    return EXIT_OK


def cmd_mock_serve(args) -> int:
    script = MockScript.from_file(args.script) if args.script else MockScript()
    kinds = {"chat", "embed"} if args.kind == "both" else {args.kind}
    try:
        server = MockServer(script, log_path=args.log, port=args.port, kinds=kinds)
    except OSError as exc:
        print(f"error: cannot bind port {args.port}: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"mock server ({args.kind}) listening on {server.base_url}")
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

    sub.add_parser("preprocess", help="HTML files -> documents.jsonl")
    sub.add_parser("match", help="documents.jsonl -> candidates.jsonl")

    p_extract = sub.add_parser(
        "extract", help="candidates.jsonl + documents.jsonl -> triplets.jsonl + report")
    p_extract.add_argument("--limit", type=int, default=None,
                           help="process at most N pending candidates this run")
    p_extract.add_argument("--deterministic", action="store_true",
                           help="omit timing fields: runs against a deterministic "
                                "endpoint write byte-identical triplets.jsonl, "
                                "report.txt, report.json and malformed.jsonl; "
                                "journal.jsonl holds the same records in "
                                "completion order")

    p_eval = sub.add_parser("eval", help="benchmark JSONL -> metrics + agreement")
    p_eval.add_argument("benchmark", help="benchmark JSONL file")
    p_eval.add_argument("--reference", default=None,
                        help="reference model for the malformed-label convention")

    p_mock = sub.add_parser("mock-serve", help="run the deterministic mock endpoint")
    p_mock.add_argument("--kind", choices=["both", "chat", "embed"], default="both")
    p_mock.add_argument("--script", default=None, help="canned-response script file")
    p_mock.add_argument("--port", type=int, default=0)
    p_mock.add_argument("--log", default=None, help="request log JSONL path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "preprocess": cmd_preprocess,
        "match": cmd_match,
        "extract": cmd_extract,
        "eval": cmd_eval,
        "mock-serve": cmd_mock_serve,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
