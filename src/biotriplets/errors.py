"""Exception types shared across the pipeline stages."""


class BiotripletsError(Exception):
    """Base class for all library errors."""


# --- document model ---

class EmptyDocument(BiotripletsError):
    """No extractable main title in the page."""


class ParseFailure(BiotripletsError):
    """Input is not HTML at all."""


class SectionNotInDocument(BiotripletsError):
    """Section path lookup for a section that is not in the document tree."""


# --- thesaurus / matcher ---

class FileUnreadable(BiotripletsError):
    pass


class FormatError(BiotripletsError):
    def __init__(self, line_no: int, message: str = "bad thesaurus row"):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyDictionary(BiotripletsError):
    """Automaton build requested for an empty thesaurus."""


# --- retrieval ---

class MatchOutOfRange(BiotripletsError):
    pass


class EndpointUnavailable(BiotripletsError):
    """Remote endpoint still failing after the retry policy is exhausted."""


class EndpointRejected(EndpointUnavailable):
    """Remote endpoint refused a request (a 4xx other than 429) or sent a
    reply that cannot be read; retrying the same request would not help."""


# --- classifier ---

class EmptyContext(BiotripletsError):
    pass


# --- evaluation ---

class LengthMismatch(BiotripletsError):
    pass


class MissingPrediction(BiotripletsError):
    def __init__(self, sample_id, model_id):
        super().__init__(f"sample {sample_id} has no prediction for {model_id}")
        self.sample_id = sample_id
        self.model_id = model_id


class MissingReference(BiotripletsError):
    pass


class EmptyMatrix(BiotripletsError):
    pass


# --- cli / config ---

class ConfigError(BiotripletsError):
    pass


class StaleCandidates(ConfigError):
    """candidates.jsonl does not fit documents.jsonl: match must be rerun."""


class ExemplarConfigError(ConfigError):
    """Exemplar file missing or unreadable, or a relation without exactly
    three exemplars, each with a question, answer and reason."""
