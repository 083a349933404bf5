import random
import re
import sys

import pytest

from biotriplets.docmodel import Section, WebDocument
from biotriplets.errors import ConfigError
from biotriplets.matcher import (
    MatcherAutomaton,
    TermEntry,
    TermMatch,
    Thesaurus,
    corpus_tokens,
    first_token,
    fold,
    load_thesaurus,
    match_terms,
    semantic_filter,
)
from biotriplets.candidates import enumerate_candidates
from biotriplets.config import DEFAULT_RELATIONS, RelationType


def make_automaton(surfaces):
    th = Thesaurus()
    for i, s in enumerate(surfaces):
        th.add(s, f"C{i}", ["T"])
    return MatcherAutomaton(th)


def oracle_match(surfaces, text):
    """Naive maximum forward matching: at every word-boundary position try
    every surface by direct string comparison, take the longest, skip it."""
    folded = fold(text)
    surfaces = sorted({fold(s) for s in surfaces}, key=len, reverse=True)
    n = len(folded)
    is_word = [c.isalnum() for c in folded]
    spans = []
    p = 0
    while p < n:
        if p == 0 or not is_word[p - 1]:
            best = 0
            for s in surfaces:
                ln = len(s)
                if ln > best and folded[p : p + ln] == s:
                    if p + ln == n or not is_word[p + ln]:
                        best = ln
            if best:
                spans.append((p, p + best))
                p += best
                continue
        p += 1
    return spans


def fold_per_char(text):
    """The reference for fold: each character lowered on its own, and kept
    as it is where lowering would lengthen it."""
    out = []
    for ch in text:
        low = ch.lower()
        out.append(low if len(low) == 1 else ch)
    return "".join(out)


class TestFold:
    # X stands for the character under test; Σ lowers to ς at a word's end
    CONTEXTS = ["X", "aX", "Xa", "AX b", "ΑΒX", "XΣ"]
    # the characters whose str.lower differs from the per-character mapping
    SPECIAL = "\u0130\u03a3"  # İ, Σ

    def test_every_code_point_alone_and_in_context(self):
        for plane in range(0, sys.maxunicode + 1, 0x10000):
            chars = [chr(cp) for cp in range(plane, plane + 0x10000)]
            alone = list(map(fold_per_char, chars))
            assert list(map(fold, chars)) == alone
            # one string per context, the cases joined by newlines; the
            # reference folds each character alone, so it folds the joined
            # string to the join of the folded parts
            plain = [(ch, low) for ch, low in zip(chars, alone) if ch not in self.SPECIAL]
            for context in self.CONTEXTS:
                before, after = context.split("X")
                sep = after + "\n" + before
                text = before + sep.join(ch for ch, _ in plain) + after
                expected = (fold_per_char(before)
                            + fold_per_char(sep).join(low for _, low in plain)
                            + fold_per_char(after))
                assert fold(text) == expected, (context, hex(plane))
        for context in self.CONTEXTS:
            for ch in self.SPECIAL:
                text = context.replace("X", ch)
                assert fold(text) == fold_per_char(text), text

    def test_random_strings(self):
        rng = random.Random(20261018)
        alphabet = "aAΣσςİıßẞǅΩ KΚ-_'1"
        for _ in range(20000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            assert fold(text) == fold_per_char(text), text


class TestLoadThesaurus:
    def test_basic_row(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("Complete blood count\tC001\tLaboratory Procedure\n")
        th = load_thesaurus(f)
        entry = th.index["complete blood count"]
        assert entry.concept_id == "C001"
        assert entry.semantic_types == {"Laboratory Procedure"}

    def test_type_union_merge(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("Nausea\tC1\tA\nnausea\tC1\tB\n")
        th = load_thesaurus(f)
        assert th.index["nausea"].semantic_types == {"A", "B"}
        assert len(th) == 1

    def test_rows_with_one_types_field_share_one_set(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("fever\tC1\tA; B\nrash\tC2\tA; B\n"
                     "cough\tC3\tA; B\ncough\tC3\tC\n")
        th = load_thesaurus(f)
        fever, rash, cough = (th.index[s] for s in ("fever", "rash", "cough"))
        assert fever.semantic_types is rash.semantic_types
        assert fever.semantic_types == {"A", "B"}
        assert cough.semantic_types == {"A", "B", "C"}

    def test_byte_order_mark(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("\ufeffFever\tC1\tSign, Symptom, or Finding\n", encoding="utf-8")
        th = load_thesaurus(f)
        assert list(th.index) == ["fever"]
        matches = match_terms(MatcherAutomaton(th), "high fever noted")
        assert [m.span for m in matches] == [(5, 10)]

    def test_empty_field_row_skipped(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("good term\tC1\tA\n\tC2\tB\n")
        th = load_thesaurus(f)
        assert len(th) == 1
        assert th.skipped_rows == 1

    def test_wrong_column_count_raises(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("only two\tcolumns\n")
        with pytest.raises(ConfigError, match="t.tsv: line 1: expected 3 columns"):
            load_thesaurus(f)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.tsv"):
            load_thesaurus(tmp_path / "missing.tsv")

    def test_concept_conflict_keeps_first(self, tmp_path):
        # the first concept keeps the surface and only its own types
        f = tmp_path / "t.tsv"
        f.write_text("cold\tC1\tSign, Symptom, or Finding\nCold\tC2\tChemical or Drug\n")
        th = load_thesaurus(f)
        assert th.index["cold"] == TermEntry("cold", "C1", frozenset({"Sign, Symptom, or Finding"}))
        assert th.concept_conflicts == 1
        doc = WebDocument("site", "https://x/1", "Page", [Section("h", 2, "A cold for days.")])
        candidates = enumerate_candidates([doc], MatcherAutomaton(th), DEFAULT_RELATIONS)
        assert [(c.relation, c.head_concept_id) for c in candidates] == [("manifestation", "C1")]

    def test_short_surfaces(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("CT\tC1\tA\nct\tC2\tA\nof\tC3\tA\n")
        th = load_thesaurus(f)
        # only the fully-uppercase short form is admitted
        assert len(th) == 1
        assert "ct" in th.index
        assert th.index["ct"].concept_id == "C1"
        assert th.skipped_short == 2


class TestAutomaton:
    def test_whole_text_surface(self):
        text = "acute kidney injury"
        a = make_automaton([text])
        matches = match_terms(a, text)
        assert len(matches) == 1
        assert matches[0].span == (0, len(text))

    def test_empty_dictionary(self, tmp_path):
        # the check is on the rows read: a thesaurus that keeps no surface
        f = tmp_path / "t.tsv"
        f.write_text("of\tC1\tA\nfever\tC2\t \n")
        with pytest.raises(ConfigError, match="empty thesaurus"):
            load_thesaurus(f)


class TestMatchTerms:
    def test_longest_match_wins(self):
        a = make_automaton(["heart", "heart failure"])
        matches = match_terms(a, "acute heart failure noted")
        assert [m.surface for m in matches] == ["heart failure"]
        start, end = matches[0].span
        assert "acute heart failure noted"[start:end] == "heart failure"

    def test_case_insensitive_longest(self):
        a = make_automaton(["blood count", "complete blood count"])
        matches = match_terms(a, "Complete blood count (CBC) may show")
        assert [m.surface for m in matches] == ["complete blood count"]

    def test_empty_text(self):
        a = make_automaton(["fever"])
        assert match_terms(a, "") == []

    def test_no_mid_word_matches(self):
        a = make_automaton(["art"])
        assert match_terms(a, "heart artful art") == [
            TermMatch("art", "C0", frozenset({"T"}), (13, 16))
        ]

    def test_markers_are_boundaries(self):
        a = make_automaton(["swelling", "liver"])
        matches = match_terms(a, "||Liver or spleen swelling||")
        assert [m.surface for m in matches] == ["liver", "swelling"]

    def test_hyphen_is_boundary(self):
        a = make_automaton(["difficile"])
        matches = match_terms(a, "C. difficile–induced colitis")
        assert len(matches) == 1

    def test_non_overlap_invariant(self):
        a = make_automaton(["ab", "ab cd", "cd ef", "ef"])
        matches = match_terms(a, "ab cd ef ab")
        spans = [m.span for m in matches]
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_determinism(self):
        a = make_automaton(["fever", "high fever", "rash"])
        text = "high fever with rash and fever again"
        assert match_terms(a, text) == match_terms(a, text)


class TestFirstToken:
    def test_alnum_class_is_str_isalnum(self):
        # the first-token index relies on `[^\W_]` being str.isalnum, and on
        # `\S` skipping exactly the characters str.strip removes
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(re.findall(r"[^\W_]", text)) == "".join(filter(str.isalnum, text))
        assert "".join(re.findall(r"\s", text)) == "".join(filter(str.isspace, text))

    def test_empty_surface_never_matches(self):
        a = make_automaton(["", "fever"])
        assert [m.surface for m in match_terms(a, " fever ")] == ["fever"]


class TestOracleEquivalence:
    VOCAB = ["ab", "cd", "efg", "hi", "jklm", "n", "op", "q", "rst", "uv"]

    def random_case(self, rng):
        n_terms = rng.randint(1, 50)
        surfaces = set()
        while len(surfaces) < n_terms:
            words = [rng.choice(self.VOCAB) for _ in range(rng.randint(1, 3))]
            surface = " ".join(words)
            if len(surface) >= 3:
                surfaces.add(surface)
        text_words = [rng.choice(self.VOCAB + ["zz", "||", "|1|"])
                      for _ in range(rng.randint(0, 300))]
        text = " ".join(text_words)[:2000]
        return sorted(surfaces), text

    # punctuation at either end of a surface, characters that fold() keeps
    # as they are, and 12-18 word surfaces of 100+ characters
    EDGE_VOCAB = ["c.", "(ct)", "x-y", "–", "İ", "ß", "straße", "İnfo",
                  "ab", "cd", "efg", "hi", "jklm", "q"]
    LONG_VOCAB = ["cardiomyopathy", "hypertrophic", "obstructive", "left",
                  "ventricular", "outflow", "tract", "syndrome"]
    SEPARATORS = [" ", " ", "  ", "-", " - ", ", ", "–", "/"]

    def edge_case(self, rng):
        def join(words):
            return "".join(w + rng.choice(self.SEPARATORS) for w in words[:-1]) + words[-1]

        surfaces = set()
        for _ in range(rng.randint(1, 40)):
            if rng.random() < 0.2:
                surfaces.add(join([rng.choice(self.LONG_VOCAB)
                                   for _ in range(rng.randint(12, 18))]))
            else:
                surfaces.add(join([rng.choice(self.EDGE_VOCAB)
                                   for _ in range(rng.randint(1, 3))]))
        pieces = [rng.choice(self.EDGE_VOCAB + self.LONG_VOCAB + ["zz", "||", "Straße"])
                  for _ in range(rng.randint(0, 300))]
        # plant a few of the surfaces, some upper-cased, so long ones occur
        for surface in rng.sample(sorted(surfaces), min(3, len(surfaces))):
            pieces.insert(rng.randint(0, len(pieces)),
                          surface.upper() if rng.random() < 0.3 else surface)
        return sorted(surfaces), join(pieces) if pieces else ""

    def test_randomized_equivalence(self):
        rng = random.Random(20240817)
        for make_case in (self.random_case, self.edge_case):
            for _ in range(200):
                surfaces, text = make_case(rng)
                automaton = make_automaton(surfaces)
                got = [m.span for m in match_terms(automaton, text)]
                assert got == oracle_match(surfaces, text)

    def test_boundary_safety(self):
        rng = random.Random(7)
        for _ in range(50):
            surfaces, text = self.random_case(rng)
            automaton = make_automaton(surfaces)
            for m in match_terms(automaton, text):
                start, end = m.span
                assert start == 0 or not text[start - 1].isalnum()
                assert end == len(text) or not text[end].isalnum()


class TestCorpusFilter:
    """Given the corpus tokens, load_thesaurus indexes only the rows a
    section can reach, and the candidates stay those of the full load."""

    RELATIONS = (RelationType("r", "r of", frozenset({"R"})),
                 RelationType("s", "s of", frozenset({"S"})))
    # "abc" is a prefix of the token "abcd"; "(r)-x" and "-ase" start with
    # a character that is not alphanumeric; İ and Σ fold one by one
    WORDS = ["abc", "abcd", "kinase", "-ase", "(r)-x", "(r)", "x", "İnfo",
             "info", "İ", "ΣIGMA", "σigma", "oδος", "ΟΔΟΣ", "cd", "AB"]
    FILLER = ["zz", "||", "(", ")", "-", "of", "abcde", "İnfos"]
    SEPARATORS = [" ", " ", "-", ", ", "/"]

    def join(self, rng, words):
        return "".join(w + rng.choice(self.SEPARATORS) for w in words[:-1]) + words[-1]

    def random_case(self, rng):
        """Thesaurus rows and documents; about half the sections are drawn
        from a part of the vocabulary, so many rows are out of reach."""
        rows = []
        for _ in range(rng.randint(1, 30)):
            surface = self.join(rng, [rng.choice(self.WORDS)
                                      for _ in range(rng.randint(1, 3))])
            rows.append((surface, f"C{rng.randint(0, 30)}", rng.choice(["R", "S", "N", "R;N"])))
        # a longer surface of no relation shadows a relation surface
        short = self.join(rng, [rng.choice(self.WORDS) for _ in range(rng.randint(1, 2))])
        longer = short + " " + rng.choice(self.WORDS)
        rows += [(short, "CR", "R"), (longer, "CN", "N")]
        surfaces = [surface for surface, _, _ in rows]
        vocab = rng.sample(self.WORDS, rng.randint(1, len(self.WORDS)))

        def text():
            pieces = [rng.choice(vocab + self.FILLER) for _ in range(rng.randint(0, 40))]
            for _ in range(rng.randint(0, 3)):
                planted = rng.choice(surfaces + [longer])
                pieces.insert(rng.randint(0, len(pieces)),
                              planted.upper() if rng.random() < 0.3 else planted)
            return self.join(rng, pieces) if pieces else ""

        docs = [WebDocument("site", f"https://x/{d}", f"Page {d}", [
            Section(f"h{i}", 2, text(), [Section("sub", 3, text())])
            for i in range(rng.randint(0, 3))
        ]) for d in range(rng.randint(1, 3))]
        return rows, docs

    def test_filtered_load_finds_the_full_loads_candidates(self, tmp_path):
        rng = random.Random(20261019)
        path = tmp_path / "t.tsv"
        unreachable = candidates = 0
        for _ in range(300):
            rows, docs = self.random_case(rng)
            path.write_text("".join(f"{s}\t{c}\t{t}\n" for s, c, t in rows), encoding="utf-8")
            sections = [s for doc in docs for s, _ in doc.walk_sections()]
            tokens = corpus_tokens(s.text for s in sections)
            full = load_thesaurus(path)
            filtered = load_thesaurus(path, tokens)
            assert filtered.index == {surface: entry for surface, entry in full.index.items()
                                      if first_token(surface) in tokens}
            assert (filtered.skipped_rows, filtered.skipped_short) == (
                full.skipped_rows, full.skipped_short)
            expected = enumerate_candidates(docs, MatcherAutomaton(full), self.RELATIONS)
            automaton = MatcherAutomaton(filtered)
            assert enumerate_candidates(docs, automaton, self.RELATIONS) == expected
            for section in sections:
                assert ([m.span for m in match_terms(automaton, section.text)]
                        == oracle_match(full.index, section.text))
            unreachable += filtered.unreachable
            candidates += len(expected)
        assert unreachable and candidates  # both sides of the filter were tried

    def test_counts_and_empty_corpus(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("fever\tC1\tA\nFever\tC2\tA\nrash\tC3\tA\nof\tC4\tA\n"
                     "cough\t\tA\n-ase\tC5\tA\n")
        th = load_thesaurus(f, corpus_tokens(["High fever - rash-free"]))
        assert sorted(th.index) == ["-ase", "fever", "rash"]
        assert (th.unreachable, th.skipped_rows, th.skipped_short, th.concept_conflicts) == (
            0, 1, 1, 1)
        th = load_thesaurus(f, corpus_tokens(["feverish"]))
        assert (len(th), th.unreachable, th.concept_conflicts) == (0, 4, 0)
        # usable rows that no text reaches are not an empty thesaurus
        assert len(load_thesaurus(f, set())) == 0
        f.write_text("of\tC1\tA\nfever\tC2\t \n")
        with pytest.raises(ConfigError, match="empty thesaurus"):
            load_thesaurus(f, set())


def reference_load(rows, tokens):
    """The loader's rules written out, applied one row at a time in their
    order. `rows` are the file's lines without their line ends and without
    the byte-order mark. Returns the index and the counts (skipped_rows,
    skipped_short, unreachable, concept_conflicts), or the message of the
    first row without 3 columns."""
    index = {}
    skipped_rows = skipped_short = unreachable = conflicts = 0
    for line_no, row in enumerate(rows, start=1):
        if not row:
            continue
        cols = row.split("\t")
        if len(cols) != 3:
            return f"line {line_no}: expected 3 columns, got {len(cols)}"
        surface, concept_id, types_field = (col.strip() for col in cols)
        types = frozenset(t.strip() for t in types_field.split(";")) - {""}
        if not surface or not concept_id or not types_field:
            skipped_rows += 1
        elif len(surface) < 3 and not (surface.isupper()
                                       and any(c.isalpha() for c in surface)):
            skipped_short += 1
        elif not types:
            skipped_rows += 1
        else:
            folded = fold_per_char(surface)
            first = re.match(r"[^\W_]+|\S", folded).group()
            if tokens is not None and first not in tokens:
                unreachable += 1
            elif folded not in index:
                index[folded] = TermEntry(folded, concept_id, types)
            elif index[folded].concept_id != concept_id:
                conflicts += 1  # the first concept keeps the surface and its types
            else:
                index[folded] = TermEntry(folded, concept_id,
                                          index[folded].semantic_types | types)
    return index, (skipped_rows, skipped_short, unreachable, conflicts)


class TestLoaderReference:
    """load_thesaurus agrees with `reference_load` on random files of
    TestCorpusFilter's vocabulary and of the rows the rules single out."""

    CORPUS = TestCorpusFilter()
    # Ⅻ and Ⓐ are upper case without being letters
    SHORT = ["ab", "AB", "x", "X", "İ", "Σ", "σ", "A1", "12", "-", "(R", "x-", "Ⅻ", "ⒶⒷ"]
    BLANK = ["", " ", "\xa0", "\u3000 "]
    TYPES = ["R", "S", "N", "R;N", " R ; N ", "R;;S", ";R;", ";", " ; ", ";;"]
    BAD = ["a\tb", "fever\tC1", "a\tb\tc\td", "fever\tC1\tR\tR", " "]

    def pad(self, rng, text):
        return (rng.choice(self.BLANK) if rng.random() < 0.2 else "") + text + (
            rng.choice(self.BLANK) if rng.random() < 0.2 else "")

    def random_row(self, rng, rows):
        earlier = [row for row in rows if row]
        if earlier and rng.random() < 0.15:  # a repeated row, or the same surface
            surface, concept, types = rng.choice(earlier).split("\t")
            if rng.random() < 0.5:
                surface = surface.upper() if rng.random() < 0.5 else surface.lower()
            return "\t".join((surface, concept, types))
        kind = rng.random()
        if kind < 0.2:
            surface = rng.choice(self.SHORT)
        elif kind < 0.25:
            surface = rng.choice(self.BLANK)
        else:
            words = [rng.choice(self.CORPUS.WORDS) for _ in range(rng.randint(1, 3))]
            surface = self.CORPUS.join(rng, words)
            if rng.random() < 0.2:
                surface = surface.upper()
        concept = rng.choice(self.BLANK) if rng.random() < 0.05 else f"C{rng.randint(0, 5)}"
        types = rng.choice(self.BLANK) if rng.random() < 0.05 else rng.choice(self.TYPES)
        return "\t".join(self.pad(rng, field) for field in (surface, concept, types))

    def test_matches_the_reference(self, tmp_path):
        rng = random.Random(20261020)
        path = tmp_path / "t.tsv"
        vocabulary = sorted(corpus_tokens(self.CORPUS.WORDS + self.CORPUS.FILLER + self.SHORT))
        seen = [0] * 4
        for _ in range(300):
            rows = []
            for _ in range(rng.randint(1, 40)):
                rows.append("" if rng.random() < 0.1 else self.random_row(rng, rows))
            if rng.random() < 0.15:
                rows.insert(rng.randint(0, len(rows)), rng.choice(self.BAD))
            ends = [rng.choice(["\n", "\r\n"]) for _ in rows]
            if rng.random() < 0.3:
                ends[-1] = ""
            text = "".join(row + end for row, end in zip(rows, ends))
            path.write_bytes((("\ufeff" if rng.random() < 0.3 else "") + text).encode("utf-8"))
            subset = set(rng.sample(vocabulary, rng.randint(0, len(vocabulary))))
            for tokens in (None, set(), subset):
                expected = reference_load(rows, tokens)
                if isinstance(expected, str):
                    with pytest.raises(ConfigError, match=re.escape(f"t.tsv: {expected}")):
                        load_thesaurus(path, tokens)
                    continue
                index, counts = expected
                if not index and not counts[2]:
                    with pytest.raises(ConfigError, match="empty thesaurus"):
                        load_thesaurus(path, tokens)
                    continue
                th = load_thesaurus(path, tokens)
                assert list(th.index.items()) == list(index.items()), rows
                assert (th.skipped_rows, th.skipped_short, th.unreachable,
                        th.concept_conflicts) == counts, rows
                seen = [a + b for a, b in zip(seen, counts)]
        assert all(seen)  # each count was nonzero somewhere


def mk_match(types):
    return TermMatch("x", "C1", frozenset(types), (0, 1))


class TestSemanticFilter:
    TREATMENT = RelationType(
        "treatment", "t", frozenset({"Therapeutic or Preventive Procedure", "Chemical or Drug"})
    )
    DIAGNOSIS = RelationType(
        "diagnosis", "d", frozenset({"Diagnostic Procedure", "Laboratory Procedure"})
    )

    def test_drug_kept_for_treatment(self):
        matches = [mk_match({"Chemical or Drug"})]
        assert semantic_filter(matches, self.TREATMENT) == matches

    def test_symptom_dropped_for_diagnosis(self):
        matches = [mk_match({"Sign, Symptom, or Finding"})]
        assert semantic_filter(matches, self.DIAGNOSIS) == []

    def test_empty_input(self):
        assert semantic_filter([], self.TREATMENT) == []
