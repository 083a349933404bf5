"""Seeded synthetic corpora, thesauri and endpoint scripts for the benchmark.

Every input is a pure function of (workload, seed). Filler prose uses a
fixed English word list and thesaurus surfaces use generated pseudo-words
that never collide with it, so the matcher finds exactly the surfaces the
generator planted and the expected candidates and triplets can be worked
out here without running the program.

The chat script answers by the first word of the head term: heads whose
first word starts with "yo" are answered Yes, "mu" gets an unparseable
reply, everything else the default No. Section text is all lower case, so
the rule strings ("Is yo" / "Is mu" with the package's question wording)
can only hit the question line. The relation types and the question come
from the package itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from biotriplets.pipeline import DEFAULT_SEMANTIC_TYPES
from biotriplets.retrieval import build_query

RELATION_ORDER = list(DEFAULT_SEMANTIC_TYPES)
# what the question puts before the head term ("Is "), so the script's
# fallback rules follow the prompt's wording
QUESTION_PREFIX = build_query("\0", RELATION_ORDER[0], "").partition("\0")[0]
OTHER_TYPES = [
    "Organism", "Body Part, Organ, or Organ Component", "Gene or Genome",
    "Amino Acid, Peptide, or Protein", "Geographic Area", "Occupation",
    "Population Group", "Functional Concept", "Spatial Concept",
    "Temporal Concept", "Qualitative Concept", "Intellectual Product",
]

YES_REASON = "The context names it as evidence for the title."
NO_REASON = "The context does not support it."
MALFORMED_RAW = "I cannot tell from this context alone."
CHAT_MODEL = "bench-chat"
YES_SHARE = 0.3    # relation terms the chat script answers Yes
LIST_SHARE = 0.2   # paragraphs rendered as lists
SITE_ID = "medsite"

FILLER = (
    "the a of and to in is was for on with as by at from that this these "
    "patients patient often may can usually most some many rarely common "
    "cases case report reported disease condition onset course early late "
    "clinical findings studies study signs present presents presented "
    "include includes including seen observed after before during within "
    "days weeks months years adults children older younger treatment care "
    "first second line options response typical atypical severe mild "
    "moderate acute chronic history family risk factors should be been are "
    "were has have had not also more less than other such which when where "
    "while because however therefore although between among each every "
    "further follow up visit hospital clinic setting guideline guidelines "
    "evidence support supports suggest suggests"
).split()
HEADINGS = [
    "Presentation", "Workup", "Treatment", "Course", "Etiology",
    "Prognosis", "Prevention", "Epidemiology", "Complications", "Follow-up",
]
SYLLABLES = [
    "ka", "ve", "ti", "ro", "lu", "ne", "sa", "po", "di", "fe", "ga", "ze",
    "xo", "qi", "bu", "ha", "je", "wa", "ri", "lo", "ta", "mi", "ko", "zu",
]


@dataclass(frozen=True)
class Workload:
    name: str
    pages: int
    sections: int                      # sections per page
    section_words: tuple[int, int]     # filler words per section, spread evenly
    relation_hits: int                 # relation terms first mentioned per section
    other_hits: int                    # non-relation term mentions per section
    relation_terms: int                # thesaurus surfaces with a relation type
    other_terms: int                   # thesaurus surfaces with another type
    long_tail_share: float             # share of surfaces with 12-18 words
    malformed_share: float = 0.0       # relation terms answered unparseably
    # stand-in delays in ms: chat fixed, embed fixed, embed per input
    delays: tuple[float, float, float] = (0.0, 0.0, 0.0)
    # chat faults as (count, statuses), each retried within max_retries (2)
    faults: tuple[tuple[int, tuple[int, ...]], ...] = ()
    # one candidate fails max_retries + 1 times, so the first extract exits 1
    outage: bool = False


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            # candidates share their section's chunks; extract is client-CPU bound
            name="long-sections",
            pages=3, sections=4, section_words=(600, 1600),
            relation_hits=20, other_hits=6,
            relation_terms=300, other_terms=100, long_tail_share=0.0,
        ),
        Workload(
            # UMLS-like thesaurus, one candidate per section: setup and match
            # dominate; endpoint latency keeps extract from competing with
            # the stand-in for the CPU
            name="large-thesaurus",
            pages=12, sections=5, section_words=(60, 200),
            relation_hits=1, other_hits=9,
            relation_terms=2000, other_terms=18000, long_tail_share=0.04,
            delays=(20.0, 5.0, 0.5),
        ),
        Workload(
            # hosted-endpoint latency, retries and one outage: extract waits
            name="remote-outage",
            pages=8, sections=4, section_words=(250, 700),
            relation_hits=2, other_hits=4,
            relation_terms=400, other_terms=200, long_tail_share=0.0,
            malformed_share=0.1,
            delays=(20.0, 5.0, 0.5),
            faults=((4, (503,)), (3, (429,)), (1, (429, 503))),
            outage=True,
        ),
    ]
}


@dataclass
class Term:
    surface: str
    concept_id: str
    semantic_type: str
    relation: str | None     # relation its type belongs to, if any
    kind: str = "no"         # "yes" | "no" | "malformed" (relation terms only)


@dataclass
class Inputs:
    """Generated files plus what a correct run must produce from them."""

    manifest: Path
    thesaurus: Path
    script: Path
    pages: int
    candidates: int
    triplets: list[str]                  # canonical JSON lines, sorted
    scripted_failures: int               # chat attempts the script fails
    expected_extract_exits: list[int]
    delays: tuple[float, float, float]
    surfaces: int
    tail_surfaces: int                   # surfaces over 100 characters


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    words: set[str] = set()
    filler = set(FILLER)
    while len(words) < count:
        w = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if w not in filler:
            words.add(w)
    return sorted(words)


def _make_terms(w: Workload, rng: random.Random) -> list[Term]:
    total = w.relation_terms + w.other_terms
    pool = _pseudo_words(rng, max(200, total // 6))
    relation_types = [(rid, t) for rid, types in DEFAULT_SEMANTIC_TYPES.items()
                      for t in sorted(types)]
    surfaces: set[str] = set()
    terms: list[Term] = []
    while len(terms) < total:
        is_relation = len(terms) < w.relation_terms
        if rng.random() < w.long_tail_share:
            words = [rng.choice(pool) for _ in range(rng.randint(12, 18))]
        else:
            words = [rng.choice(pool) for _ in range(rng.choices((1, 2, 3), (3, 5, 2))[0])]
        kind = "no"
        if is_relation:  # exact shares, so sizes do not vary by seed
            share = len(terms) / w.relation_terms
            if share < YES_SHARE:
                kind, words[0] = "yes", "yo" + words[0]
            elif share < YES_SHARE + w.malformed_share:
                kind, words[0] = "malformed", "mu" + words[0]
        surface = " ".join(words)
        if surface in surfaces:
            continue
        surfaces.add(surface)
        if is_relation:
            relation, stype = relation_types[rng.randrange(len(relation_types))]
        else:
            relation, stype = None, rng.choice(OTHER_TYPES)
        terms.append(Term(surface, f"C{len(terms) + 1:07d}", stype, relation, kind))
    return terms


def _section_html(rng: random.Random, n_words: int, planted: list[str]) -> str:
    """Paragraphs and lists of `n_words` filler words with the `planted`
    surfaces inserted in order, no two of them adjacent."""
    if len(planted) >= n_words:
        raise ValueError("section too short for its planted terms")
    tokens = [rng.choice(FILLER) for _ in range(n_words)]
    slots = sorted(rng.sample(range(1, n_words), len(planted)))
    for offset, (slot, surface) in enumerate(zip(slots, planted)):
        tokens.insert(slot + offset, surface)
    blocks, pos = [], 0
    while pos < len(tokens):
        size = rng.randint(40, 120)
        chunk = tokens[pos:pos + size]
        pos += size
        if rng.random() < LIST_SHARE and len(chunk) >= 8:
            step = max(2, len(chunk) // rng.randint(3, 6))
            items = [" ".join(chunk[i:i + step]) for i in range(0, len(chunk), step)]
            blocks.append("<ul>" + "".join(f"<li>{it}</li>" for it in items) + "</ul>")
        else:
            blocks.append(f"<p>{' '.join(chunk)}, as noted.</p>")
    return "\n".join(blocks)


def generate(name: str, seed: int, root: Path) -> Inputs:
    """Write the workload's files under `root` and return what to expect."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    pages_dir = root / "pages"
    pages_dir.mkdir(exist_ok=True)

    terms = _make_terms(w, rng)
    relation_terms = [t for t in terms if t.relation]
    other_terms = [t for t in terms if not t.relation]
    thesaurus = root / "thesaurus.tsv"
    with open(thesaurus, "w", encoding="utf-8") as fh:
        for t in terms:
            fh.write(f"{t.surface}\t{t.concept_id}\t{t.semantic_type}\n")

    # candidates in the order the program enumerates them, with their
    # first-mention section path
    candidates: list[tuple[Term, str, str, str]] = []  # term, title, url, path
    # section lengths spread evenly over the range, so sizes do not vary by seed
    n_sections = w.pages * w.sections
    lo, hi = w.section_words
    lengths = [lo + (hi - lo) * i // max(1, n_sections - 1) for i in range(n_sections)]
    rng.shuffle(lengths)
    manifest = root / "manifest.jsonl"
    with open(manifest, "w", encoding="utf-8") as mf:
        for p in range(w.pages):
            title = f"{rng.choice(SYLLABLES).capitalize()}{rng.choice(SYLLABLES)}tic syndrome {p}"
            url = f"https://{SITE_ID}.example.org/articles/{p}"
            seen: set[str] = set()
            page_terms = rng.sample(relation_terms, w.sections * w.relation_hits)
            body = []
            for j, heading in enumerate(rng.sample(HEADINGS, w.sections)):
                rel = page_terms[j * w.relation_hits:(j + 1) * w.relation_hits]
                mentioned = page_terms[:(j + 1) * w.relation_hits]
                rel += rng.sample(mentioned, len(rel) // 4)  # repeat mentions
                planted = rel + [rng.choice(other_terms) for _ in range(w.other_hits)]
                rng.shuffle(planted)
                body.append(f"<h2>{heading}</h2>")
                body.append(_section_html(rng, lengths.pop(), [t.surface for t in planted]))
                path = f"{title} > {heading}"
                by_relation = {r: [] for r in RELATION_ORDER}
                for t in planted:  # text order is the planted order
                    if t.relation and t.concept_id not in seen:
                        seen.add(t.concept_id)
                        by_relation[t.relation].append((t, title, url, path))
                for r in RELATION_ORDER:
                    candidates.extend(by_relation[r])
            html = (
                f"<html><head><title>{title} | Med Site</title></head><body>\n"
                f"<nav><a href='/'>Home</a> <a href='/az'>A-Z index</a></nav>\n"
                f"<h1>{title}</h1>\n" + "\n".join(body) +
                "\n<footer>Reviewed by the editorial board.</footer></body></html>\n"
            )
            page = pages_dir / f"p{p:04d}.html"
            page.write_text(html, encoding="utf-8")
            mf.write(json.dumps({"site_id": SITE_ID, "url": url, "path": str(page)}) + "\n")

    def spec(kind: str) -> dict:
        if kind == "yes":
            return {"answer": "Yes", "reason": YES_REASON}
        if kind == "malformed":
            return {"raw": MALFORMED_RAW}
        return {"answer": "No", "reason": NO_REASON}

    faults = [list(statuses) for count, statuses in w.faults for _ in range(count)]
    outage_at = len(candidates) * 2 // 5
    targets = rng.sample([i for i in range(len(candidates)) if i != outage_at], len(faults))
    if w.outage:  # exhausts max_retries (2): the first extract exits 1 part way
        faults.append([503, 503, 503])
        targets.append(outage_at)
    rules = []
    for i, statuses in zip(targets, faults):
        t, title, _, _ = candidates[i]
        rules.append({"contains": build_query(t.surface, t.relation, title),
                      "statuses": statuses, **spec(t.kind)})
    rules.append({"contains": QUESTION_PREFIX + "yo", **spec("yes")})
    rules.append({"contains": QUESTION_PREFIX + "mu", **spec("malformed")})
    script = root / "script.json"
    script.write_text(json.dumps({"default": spec("no"), "rules": rules}), encoding="utf-8")

    triplets = sorted(
        json.dumps({
            "head_concept_id": t.concept_id,
            "head_surface": t.surface,
            "relation": t.relation,
            "tail_title": title,
            "site_id": SITE_ID,
            "page_url": url,
            "section_path": path,
            "reason": YES_REASON,
            "model_id": CHAT_MODEL,
        }, sort_keys=True)
        for t, title, url, path in candidates if t.kind == "yes"
    )
    tail = sum(1 for t in terms if len(t.surface) > 100)
    return Inputs(
        manifest=manifest, thesaurus=thesaurus, script=script,
        pages=w.pages, candidates=len(candidates), triplets=triplets,
        scripted_failures=sum(len(f) for f in faults),
        expected_extract_exits=[1, 0] if w.outage else [0],
        delays=w.delays, surfaces=len(terms), tail_surfaces=tail,
    )


def write_config(inputs: Inputs, workdir: Path, base_url: str, workers: int) -> Path:
    """Run configuration pointing at the generated files and the stand-in."""
    path = workdir.parent / f"{workdir.name}.toml"
    path.write_text(f"""
[paths]
thesaurus = "{inputs.thesaurus}"
manifest = "{inputs.manifest}"
workdir = "{workdir}"

[chat]
base_url = "{base_url}"
model = "{CHAT_MODEL}"
max_retries = 2
max_concurrency = {workers}

[embedding]
base_url = "{base_url}"
model = "bench-embed"
batch_limit = 128
max_retries = 2

[retrieval]
anchor_min_words = 512
chunk_words = 128
overlap_words = 32
top_k = 10

[sites.{SITE_ID}]
list_marker_style = "plain"

[pipeline]
workers = {workers}
site_priority = ["{SITE_ID}"]
""", encoding="utf-8")
    return path
