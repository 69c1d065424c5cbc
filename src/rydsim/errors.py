"""Exception hierarchy for the simulation package."""


class SimulationError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SimulationError):
    """Invalid configuration file, unknown key or violated invariant."""


class ChannelError(ConfigError):
    """A pair channel violates dipole selection rules."""


class NumericsError(SimulationError):
    """A numerical routine failed to converge or lost probability."""
