"""``python -m rho_tensor``: the ``rho-tensor`` command line."""

from .cli import entrypoint

entrypoint()
