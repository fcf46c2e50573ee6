"""Paper-style table and series formatting for the benchmark harness."""


def _fmt(value):
    if value is None:
        return "N/A"
    if isinstance(value, float):
        if value != 0 and (abs(value) >= 10000 or abs(value) < 0.001):
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers, rows, title=None):
    """Render an aligned text table (the rows the paper reports); floats
    print with three decimals."""
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
