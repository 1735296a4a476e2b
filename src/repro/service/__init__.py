"""The graph service layer: ``repro serve`` + ``repro shell``.

A persistent daemon (:mod:`repro.service.daemon`) and an interactive
shell (:mod:`repro.service.shell`) over one shared request/response
surface (:mod:`repro.service.core`), speaking newline-delimited JSON
frames of the library's :class:`~repro.api.envelope.Result` envelopes
(:mod:`repro.service.protocol`). Sessions stay warm across requests
and survive edits (:meth:`~repro.api.GraphSession.add_edge` /
:meth:`~repro.api.GraphSession.remove_edge`), which drop the derived
layers so the next read re-canonicalizes.
"""
