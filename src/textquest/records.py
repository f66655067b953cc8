"""Two helpers the other modules share: `fast_init`, a cheaper constructor
for frozen dataclasses, and `LruCache`, the package's one bounded cache."""

from dataclasses import MISSING, fields


def fast_init(cls):
    """Apply above @dataclass(frozen=True): an __init__ with the same
    signature and __post_init__ call that fills the instance __dict__ in
    one update, where the generated one calls object.__setattr__ per field."""
    flds = fields(cls)
    if any(f.default_factory is not MISSING or not f.init for f in flds):
        raise TypeError(f"fast_init cannot build {cls.__name__}")
    scope = {f"_{f.name}": f.default for f in flds if f.default is not MISSING}
    params = ", ".join(f"{f.name}=_{f.name}" if f"_{f.name}" in scope
                       else f.name for f in flds)
    fill = ", ".join(f"{f.name!r}: {f.name}" for f in flds)
    post = "; self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self, {params}):\n"
         f"    self.__dict__.update({{{fill}}}){post}", scope)
    init = cls.__init__ = scope["__init__"]
    init.__annotations__ = {f.name: f.type for f in flds} | {"return": None}
    return cls


class LruCache(dict):
    """A dict that keeps its `capacity` most recently used entries."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity

    def get(self, key, default=None):
        if key not in self:
            return default
        self[key] = value = self.pop(key)
        return value

    def __setitem__(self, key, value) -> None:
        self.pop(key, None)
        super().__setitem__(key, value)
        if len(self) > self.capacity:
            del self[next(iter(self))]
