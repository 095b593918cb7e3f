#!/usr/bin/env python3
"""Serving demo: concurrent clients sharing one warm experiment server.

This example walks the serving layer (``docs/serving.md``) end to end:

1. start an ``ExperimentService`` and a TCP endpoint in-process,
2. connect two independent async clients,
3. submit a cold request and watch its lifecycle events,
4. submit **concurrent identical** requests from both clients and show they
   coalesce onto one job (``coalesced`` flags), and
5. show via the per-request ``RunStats`` counters that the warm-cache answers
   recompute nothing (``simulated 0 configs``).

Run it with::

    python examples/serve_client.py

It uses a tiny workload (AlexNet only, two pallets per layer) so the cold
pass takes seconds; drop the ``overrides`` for a full ``fast``-preset run.
"""

from __future__ import annotations

import asyncio

from repro.serve import ExperimentService, ServeClient

#: Shrink the fast preset so the demo's cold pass takes seconds.
OVERRIDES = {"networks": ["alexnet"], "max_pallets": 2, "samples_per_layer": 1500}


async def main() -> None:
    service = ExperimentService(workers=2)  # memory-only session
    async with service:
        server = await service.serve_tcp("127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(f"server listening on 127.0.0.1:{port}")
        async with server:
            alice = await ServeClient.connect("127.0.0.1", port)
            bob = await ServeClient.connect("127.0.0.1", port)

            # --- cold request: pays the full simulation cost -----------------
            events: list[str] = []
            cold = await alice.run_experiment(
                "fig9",
                preset="fast",
                overrides=OVERRIDES,
                on_event=lambda payload: events.append(payload["event"]),
            )
            print(f"\ncold request:   events={events}")
            print(f"                {cold.stats.summary()}")

            # --- concurrent identical requests: coalesce onto one job -------
            warm_a, warm_b = await asyncio.gather(
                alice.run_experiment("fig9", preset="fast", overrides=OVERRIDES),
                bob.run_experiment("fig9", preset="fast", overrides=OVERRIDES),
            )
            print("\nconcurrent identical requests:")
            for name, response in (("alice", warm_a), ("bob", warm_b)):
                print(
                    f"  {name}: ticket={response.ticket} "
                    f"coalesced={response.coalesced} "
                    f"simulated={response.stats.sweep.configs_simulated} configs, "
                    f"cache {response.stats.cache.hits} hits / "
                    f"{response.stats.cache.misses} misses"
                )
            assert {warm_a.coalesced, warm_b.coalesced} == {True, False}
            assert warm_a.stats.sweep.configs_simulated == 0
            assert warm_b.stats.sweep.configs_simulated == 0

            # --- the cache also serves *different* overlapping requests -----
            sim = await bob.simulate(
                "alexnet", variants="fig9", preset="fast", overrides={"max_pallets": 2}
            )
            print(
                f"\nsimulate op (same design points): "
                f"cache {sim.stats.cache.hits} hits / {sim.stats.cache.misses} misses, "
                f"simulated {sim.stats.sweep.configs_simulated} configs"
            )

            # --- server-side totals ------------------------------------------
            stats = await alice.stats()
            queue = stats["queue"]
            print(
                f"\nserver: {queue['submitted']} submitted, "
                f"{queue['coalesced']} coalesced, {queue['completed']} executed; "
                f"session totals: {stats['stats']['sweep']['configs_simulated']} "
                f"configs simulated in {stats['cache_entries']} cache entries"
            )

            await alice.close()
            await bob.close()


if __name__ == "__main__":
    asyncio.run(main())
