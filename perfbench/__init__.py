"""The repository's benchmark of record (see ``perfbench/README.md``)."""
