"""Built-in checkers — importing this package populates the registry.

Add a new rule by dropping a module here that defines a ``@register``-ed
checker class, then importing it below (imports are what execute the
registration).  See ``src/repro/analysis/README.md`` for the recipe.
"""

from . import (  # noqa: F401  (imported for their registration side effect)
    rl002_wire,
    rl006_lockflow,
    rl008_asyncflow,
)
