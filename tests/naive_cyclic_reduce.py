"""The former cyclic reduction, kept as a test oracle.

`naive_cyclic_reduce_letters` reduces the word freely again after every
pair of matching ends it strips.  `eqpi1.groupoids.cyclic_reduce_letters`
reduces once and strips the ends by index, since the interior of a
freely reduced word is freely reduced; the tests require equal results.
"""

from eqpi1.groupoids import free_reduce_letters


def naive_cyclic_reduce_letters(letters) -> tuple:
    w = list(free_reduce_letters(letters))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
        w = list(free_reduce_letters(w))
    return tuple(w)
