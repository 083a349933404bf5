"""Evidential relation-triplet extraction from semi-structured web articles.

The pipeline turns locally stored article HTML into (head entity, relation,
tail entity) triplets: pages are normalized into a marker-annotated section
tree, candidate head entities are matched against a large thesaurus by
longest-first hash lookup, long sections are chunked and retrieved by
embedding similarity, and a chat model answers one yes/no question per
candidate, returning a JSON verdict whose reason is kept as provenance.
"""

__version__ = "0.1.0"
