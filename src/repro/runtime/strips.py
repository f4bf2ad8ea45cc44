"""Strips of a map's first parameter, for generated code (DESIGN.md §9)."""


def strips(lo, hi, step, inner, points):
    """``(lo, hi, n)`` for each strip of ``range(lo, hi, step)``: whole
    iterations of about ``points`` domain points together, ``inner`` per
    iteration, at least one per strip; ``n`` is the strip's trip count."""
    span = max(1, points // inner) * step
    for s in range(lo, hi, span):
        e = min(s + span, hi)
        yield s, e, len(range(s, e, step))
