"""Helpers for comparing ``vindicator.analyze/1`` documents and for
reading ``--metrics`` span trees."""

import json

#: The wall-clock fields of a document: all that may differ between
#: two runs of the same trace, whatever detectors produced them.
TIMING_FIELDS = ("timing", "elapsed_seconds", "metrics")


def blank_timings(doc):
    """A deep copy of ``doc`` with every timing field set to None."""
    def blank(node):
        if isinstance(node, dict):
            return {key: None if key in TIMING_FIELDS else blank(value)
                    for key, value in node.items()}
        if isinstance(node, list):
            return [blank(item) for item in node]
        return node
    return blank(json.loads(json.dumps(doc)))


def span_totals(path):
    """Total ``elapsed_seconds`` per span name in the ``--metrics``
    document at ``path``, over every span of the tree (children
    included, repeated names summed)."""
    with open(path, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    totals = {}

    def walk(nodes):
        for span in nodes:
            name = span["name"]
            totals[name] = totals.get(name, 0.0) + span["elapsed_seconds"]
            walk(span.get("children", []))
    walk(spans)
    return totals
