"""Helpers shared by the test modules."""

from symwedge import Configuration


def configurations(S):
    """The samples of S as Configurations, built with the checks from ``S.points``."""
    return [Configuration.from_rows(rows) for rows in S.points.tolist()]
