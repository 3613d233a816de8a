"""ili.csv writer shared by the tests, in the layout `datahub.load_ili`
reads."""

from flucast import datahub


def write_ili_csv(path, rows):
    """ili.csv with one line per (iso_week, country, ili_rate) row, as
    given, so a test can write rows the loader must refuse."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("iso_week,country,ili_rate\n")
        for r in rows:
            f.write(",".join(str(x) for x in r) + "\n")


def series_rows(series_by_country):
    """Rows of every week of each WeeklySeries, by country, then week.

    Rates are Python floats, whose str() is their repr, so a written
    file loads back bit for bit.
    """
    return [(datahub.format_week(week), country, float(v))
            for country, s in sorted(series_by_country.items())
            for week, v in zip(s.weeks(), s.values)]
