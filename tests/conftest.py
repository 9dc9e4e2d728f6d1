from datetime import date
from types import SimpleNamespace

import numpy as np

from leadlag.timeseries import Panel

pytest_plugins = ["pytester"]

START = date(2021, 10, 1)

# every report field beyond the table's own: its value where a cell has none
CELL_DEFAULTS = dict(f_stat=None, p_value=None, df_num=None, df_den=None,
                     optimal_lead=None, ccf_at_optimal=None, ccf_at_horizon=None,
                     dtw_median_lead=None, dtw_normalized_distance=None,
                     effective_lead=None, eroded=False, degenerate=False, truncated=False)
INTEGER_FIELDS = ("df_num", "df_den", "optimal_lead")


def panel(series: dict, start=START) -> Panel:
    """Panel of one variable from {geo id: daily values}."""
    geo_ids = sorted(series)
    return Panel(start, tuple(geo_ids),
                 np.array([series[g] for g in geo_ids], dtype=float))


def row(p: Panel, geo_id: str) -> np.ndarray:
    """The daily values of one geography."""
    return p.values[p.geo_ids.index(geo_id)]


def records(tables) -> list[SimpleNamespace]:
    """The rows of result tables as records with one attribute per report field.

    Absent statistics read None, integer statistics are ints, and records come
    in (trust, indicator, wave, method) order.
    """
    out = []
    for table in tables:
        columns = {name: values.tolist() for name, values in table.columns.items()}
        for k, trust in enumerate(table.trust_ids):
            record = dict(CELL_DEFAULTS, trust_id=trust, indicator=table.indicator,
                          wave=table.wave, method=table.method, horizon=table.horizon,
                          provenance=table.provenance)
            for name, values in columns.items():
                value = values[k]
                if isinstance(value, float):
                    value = None if value != value else (
                        int(value) if name in INTEGER_FIELDS else value)
                record[name] = value
            out.append(SimpleNamespace(**record))
    return sorted(out, key=lambda r: (r.trust_id, r.indicator, r.wave, r.method))
