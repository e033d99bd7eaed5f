from repro.trace.packed import PackedTrace


def retire(core, *records):
    """Retire ``records`` in order through ``Core.run``; returns the count."""
    packed = PackedTrace.from_records(records)
    return core.run(packed.pcs, packed.loads, packed.stores, packed.flags,
                    0, len(packed))
