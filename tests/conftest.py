from datetime import date

import numpy as np

from leadlag.timeseries import Panel

START = date(2021, 10, 1)


def panel(series: dict, variable: str = "v", level: str = "trust", start=START) -> Panel:
    """Panel of one variable from {geo id: daily values}."""
    geo_ids = sorted(series)
    return Panel(level, variable, start, tuple(geo_ids),
                 np.array([series[g] for g in geo_ids], dtype=float))


def row(p: Panel, geo_id: str) -> np.ndarray:
    """The daily values of one geography."""
    return p.values[p.geo_ids.index(geo_id)]
