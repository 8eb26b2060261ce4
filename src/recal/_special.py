"""``scipy.special``, imported the first time one of its functions is used.

``sp.ndtri(x)`` is ``scipy.special.ndtri(x)``: the first lookup of a name
imports scipy.special (under the import lock, so concurrent first uses are
safe) and caches the function in this module, so later lookups are plain
module attribute reads. Code that calls no special function never pays for
the import.
"""


def __getattr__(name: str):
    import scipy.special

    value = getattr(scipy.special, name)
    globals()[name] = value
    return value
