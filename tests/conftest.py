"""Imported before every test module: lfam comes before numpy, so numpy's
BLAS loads on one thread and a split forward may fork its shard worker, as
it does under the console command."""

import lfam  # noqa: F401
