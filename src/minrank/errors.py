"""Exception types shared across the package."""


class GraphError(ValueError):
    """Malformed graph data or graph format input, or bad graph arguments."""


class StructureError(ValueError):
    """A tree-of-parts structure failed validation or could not be derived."""


class NotInFamilyError(Exception):
    """A graph was proven not to belong to the decomposable family."""

    def __init__(self, detail: str, atom=None):
        super().__init__(detail)
        self.detail = detail
        self.atom = atom
