"""Experiment drivers: one per paper figure, plus ablations.

Import each name from the module that defines it (``repro.experiments.fig45``,
``repro.experiments.motif_sweep`` and so on): the package itself imports
none of them, so a process that runs one driver loads only that one.
"""
