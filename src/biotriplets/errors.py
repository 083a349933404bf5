"""Exception types, one per way a CLI run ends.

Errors that no handler tells apart are ValueError or TypeError, caught by
the code that gives them meaning.
"""


class BiotripletsError(Exception):
    """Base class for all library errors."""


class ConfigError(BiotripletsError):
    """An input the run cannot use (config, thesaurus, manifest, exemplars,
    or stage files that do not fit): exit 2 with one line."""


class DocumentError(BiotripletsError):
    """A page that cannot become a document; preprocess skips it, exit 1."""


class EndpointUnavailable(BiotripletsError):
    """Remote endpoint still failing after the retry policy is exhausted."""


class EndpointRejected(EndpointUnavailable):
    """Remote endpoint refused a request (a 4xx other than 429) or sent a
    reply that cannot be read; retrying the same request would not help."""
