"""Names the CLI offers before it imports the code behind them.

The spectrum families and the ``reproduce`` tables are listed here, free
of numpy, so that the argument parser can show and check them while a
query on a traces file imports neither numpy nor the modules that build
spectra and tables.
"""

FAMILIES = ("geometric", "uniform", "lognormal", "two_point", "bimodal",
            "clustered", "custom")
# the families spectra.generate builds; "custom" spectra wrap explicit lists
GENERATED_FAMILIES = tuple(f for f in FAMILIES if f != "custom")
RANDOM_FAMILIES = ("lognormal", "clustered")

# the reproduce tables, in the order of tables.BUILDERS
TABLES = ("k0m-errors", "optimal-m", "bounds-comparison", "alpha",
          "asymptotic", "saturation", "radius-scan", "noise-crossover",
          "boxcox-sweep", "latane")
