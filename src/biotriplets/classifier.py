"""Prompt assembly and verdict parsing.

Each candidate becomes one binary question answered by a chat model. The
reply must be a JSON object with "answer" (Yes/No) and "reason"; the
reason is stored verbatim as the evidential record. Replies with no
recoverable answer JSON become Judgment(answer="Malformed") rather than
errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .candidates import CandidatePair
from .docmodel import record
from .endpoint import ChatEndpoint
from .errors import ConfigError
from .retrieval import Chunk

EXEMPLARS_PER_RELATION = 3

SYSTEM_PREAMBLE = (
    "You are a careful biomedical relation classifier. The context below was "
    "extracted from a web page whose main title is: {tail}. Everything on that "
    "page describes the main title, even where the title itself is not "
    "mentioned. List items appear between marker tokens such as || or |1|. "
    "Before answering, first consider what the highlighted biomedical term "
    "means. Then decide the question and reply with exactly one JSON object "
    'with two keys: "answer" (either "Yes" or "No") and "reason" (a short '
    "justification grounded in the context or established biomedical "
    "knowledge). Output nothing except that JSON object."
)


@dataclass(frozen=True)
class Exemplar:
    """One few-shot example: a question and the reply the model should give."""

    question: str
    answer: str
    reason: str


def load_exemplars(
    path: Optional[str | Path] = None, relations: Iterable[str] = ()
) -> dict[str, list[Exemplar]]:
    """Load the few-shot exemplar file: a JSON object mapping each relation
    to exactly three objects with "question", "answer" and "reason", each a
    string. A file that is missing, unreadable, otherwise shaped, or without
    exemplars for one of `relations` raises ConfigError naming it."""
    if path is None:
        from importlib import resources  # only extract reads exemplars

        source = resources.files("biotriplets.data").joinpath("exemplars.json")
    else:
        source = Path(path)
    try:
        data = json.loads(source.read_text(encoding="utf-8"))
        exemplars = {relation: _relation_exemplars(relation, items)
                     for relation, items in data.items()}
        missing = [r for r in relations if r not in exemplars]
        if missing:
            raise ValueError(f"no exemplars for relations {missing}")
        return exemplars
    except KeyError as exc:
        raise ConfigError(f"exemplars {source}: an exemplar lacks {exc}") from None
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"exemplars {source}: {exc}") from None


def _relation_exemplars(relation: str, items: list[dict]) -> list[Exemplar]:
    if len(items) != EXEMPLARS_PER_RELATION:
        raise ValueError(f"relation {relation!r} has {len(items)} exemplars, "
                         f"expected {EXEMPLARS_PER_RELATION}")
    return [record(Exemplar, item) for item in items]


@dataclass(frozen=True)
class PromptBundle:
    system_preamble: str
    exemplars: tuple[Exemplar, ...]
    context_block: str
    question: str

    def to_messages(self) -> list[dict]:
        messages = [{"role": "system", "content": self.system_preamble}]
        for ex in self.exemplars:
            messages.append({"role": "user", "content": ex.question})
            reply = json.dumps({"answer": ex.answer, "reason": ex.reason}, ensure_ascii=False)
            messages.append({"role": "assistant", "content": reply})
        messages.append(
            {"role": "user", "content": f"{self.context_block}\n\n{self.question}"}
        )
        return messages


def build_prompt(
    candidate: CandidatePair,
    question: str,
    retrieved: list[Chunk],
    exemplars: dict[str, list[Exemplar]],
) -> PromptBundle:
    lines = [f"main title: {candidate.tail_title}"]
    for chunk in retrieved:
        lines.append(f"[{candidate.section_path}]")
        lines.append(chunk.text)
    return PromptBundle(
        system_preamble=SYSTEM_PREAMBLE.format(tail=candidate.tail_title),
        exemplars=tuple(exemplars[candidate.relation]),
        context_block="\n".join(lines),
        question=question,
    )


@dataclass(frozen=True)
class Judgment:
    answer: str  # "Yes" | "No" | "Malformed"
    reason: str
    raw_output: str


def parse_judgment(raw: str) -> Judgment:
    """Recover the first answer JSON from the reply; total, never raises.

    Scans every '{' for a balanced JSON object carrying string "answer"
    and "reason" fields with a Yes/No answer. Anything else is Malformed
    with the raw output preserved.
    """
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        idx = raw.find("{", pos)
        if idx < 0:
            break
        try:
            obj, _ = decoder.raw_decode(raw, idx)
        except (ValueError, RecursionError):
            pos = idx + 1
            continue
        if (
            isinstance(obj, dict)
            and isinstance(obj.get("answer"), str)
            and isinstance(obj.get("reason"), str)
        ):
            answer = obj["answer"].strip().lower()
            if answer in ("yes", "no"):
                return Judgment(answer.capitalize(), obj["reason"], raw)
        pos = idx + 1
    return Judgment("Malformed", "", raw)


def classify(
    candidate: CandidatePair,
    question: str,
    retrieved: list[Chunk],
    endpoint: ChatEndpoint,
    exemplars: dict[str, list[Exemplar]],
) -> Judgment:
    bundle = build_prompt(candidate, question, retrieved, exemplars)
    return parse_judgment(endpoint.complete(bundle.to_messages()))
