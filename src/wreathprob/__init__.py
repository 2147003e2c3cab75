"""Exact asymptotics for random partition tuples over wreath products.

The package computes, in exact rational (and where needed cyclotomic)
arithmetic, the character theory of G wr S_q.  The package root exports
nothing; each name is imported from the module that owns it:
`partitions` (characters, dimensions, rim hooks), `diagrams` (transition
measures, free cumulants), `indicators` (conjugacy-class indicators and
their structure constants), `groups` and `cyclotomics` (base groups and
their character values), `wreath` (families and their canonical measures),
`asymptotics` (cumulant scalings and their limits), `bruteforce` (checks by
enumeration), `sampling` (the growth-process sampler), `errors` (the
exit-code exceptions) and `cli`.
"""

__version__ = "0.1.0"
