"""``python -m qpresponse``: the same front-end as the ``qpresponse`` script."""

from qpresponse.cli import entry

if __name__ == "__main__":
    entry()
