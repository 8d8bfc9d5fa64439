package cluster

// Worker rejoin and the health prober. A dead worker (crashed,
// restarted empty, or partitioned past the breaker) re-enters the
// routing table only after catching up: for every shard slice it hosts,
// a live replica ships a full snapshot — schema first, then rows — and
// the coordinator rebuilds the slice on the returning worker before
// flipping it healthy. The prober drives this automatically: suspect
// workers are probe-dialed back to healthy, dead workers get a rejoin
// attempt each tick.

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/schema"
	"repro/internal/wire"
)

// Rejoin rebuilds every shard slice worker w hosts from live replicas
// and returns it to the routing table. The worker must be dead; errors
// leave it dead for the next probe to retry. Runs under the write lock,
// so no statement observes a half-rebuilt worker.
func (co *Coordinator) Rejoin(w int) error {
	if !co.health.beginRejoin(w) {
		return fmt.Errorf("cluster: worker %d is %s, not dead", w, co.health.state(w))
	}
	co.mu.Lock()
	err := co.rejoinLocked(w)
	// Flip the worker healthy while still holding the write lock. If the
	// lock were released first, a DML could run in the gap, see the
	// worker still rejoining and skip it — and the freshly "caught-up"
	// worker would silently miss a committed write.
	co.health.finishRejoin(w, err == nil)
	co.mu.Unlock()
	return err
}

func (co *Coordinator) rejoinLocked(w int) error {
	for _, name := range co.cat.Names() {
		rel, ok := co.cat.Lookup(name)
		if !ok {
			continue
		}
		for _, s := range co.hostedShards(w) {
			src := -1
			for _, r := range co.replicasOf(s) {
				if r != w && co.health.live(r) {
					src = r
					break
				}
			}
			if src < 0 {
				return fmt.Errorf("cluster: rejoin of worker %d: %w %d", w, ErrShardUnavailable, s)
			}
			srel := &schema.Relation{Name: physName(rel.Name, s), Columns: rel.Columns, Key: rel.Key}
			if err := co.shipSnapshot(src, w, srel); err != nil {
				return fmt.Errorf("cluster: rejoin of worker %d: %s: %w", w, srel.Name, err)
			}
		}
	}
	return nil
}

// shipSnapshot rebuilds one physical table on dst from src's copy: drop
// any stale remnant, recreate from the coordinator's schema, forward each
// snapshot RowBatch to dst as a LoadRows frame as it arrives, and verify
// src's shipped schema matches — a mismatch means the replicas diverged
// structurally and the rejoin must not paper over it.
func (co *Coordinator) shipSnapshot(src, dst int, srel *schema.Relation) error {
	create := RenderCreate(srel)
	if err := co.dropIgnoreMissing(dst, srel.Name); err != nil {
		return err
	}
	if _, err := co.collect(dst, create); err != nil {
		return err
	}
	var meta wire.SnapshotMeta
	var loadErr error
	err := co.call(src, func(c *client.Conn) error {
		var err error
		meta, _, err = c.Snapshot(srel.Name, func(b wire.RowBatch) error {
			_, loadErr = co.insertRows(dst, srel.Name, b.Rows, loadLimit)
			return loadErr
		})
		if loadErr != nil {
			// dst failed and insertRows already classified it; src answered
			// fine, so its aborted stream must not count against it.
			return nil
		}
		return err
	})
	if loadErr != nil {
		return loadErr
	}
	if err != nil {
		return err
	}
	if meta.CreateSQL != create {
		return fmt.Errorf("cluster: snapshot schema diverged: worker %d has %q, catalog says %q",
			src, meta.CreateSQL, create)
	}
	return nil
}

// probeLoop is the background health prober.
func (co *Coordinator) probeLoop(interval time.Duration) {
	defer co.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
		}
		for w := range co.pools {
			co.Probe(w)
		}
	}
}

// Probe runs one immediate health probe of worker w, exactly as a
// prober tick would: a suspect worker heals on a clean round-trip, a
// reachable dead worker gets a rejoin attempt (errors leave it dead for
// the next probe). It reports whether the worker is live afterwards.
// Exported for harnesses and tests that need deterministic probe timing
// instead of the background ticker.
func (co *Coordinator) Probe(w int) bool {
	switch co.health.state(w) {
	case workerSuspect:
		return co.probeWorker(w)
	case workerDead:
		if co.probeWorker(w) {
			return co.Rejoin(w) == nil
		}
		return false
	}
	return co.health.live(w)
}

// probeWorker checks reachability with a trivial statement. A healthy
// exchange heals a suspect worker (call marks success); for a dead
// worker it only reports reachability — rejoin decides the rest.
func (co *Coordinator) probeWorker(w int) bool {
	// An idle pooled conn can be stale; a real round-trip proves the
	// worker serves. The probed name's logical part (__PROBE__) lies
	// inside the reserved __ namespace, so no CREATE can ever make it
	// exist — neither as a user table nor as any table's shard slice —
	// and the DROP answers fast and touches nothing. (A bare PROBE__S0
	// would NOT be safe: user table PROBE is legal, and its shard-0
	// slice is exactly that name.)
	err := co.call(w, func(c *client.Conn) error {
		_, err := c.Collect("DROP TABLE __PROBE____S0", client.Options{Timeout: co.cfg.IOTimeout})
		if err == nil || unknownRelation(err) {
			return nil
		}
		// A stale pooled conn failing its round trip is no breaker
		// evidence: %v keeps the failure untyped, so call returns the
		// poisoned conn to the pool, which drops it, and the next probe
		// dials fresh.
		return fmt.Errorf("cluster: probe of worker %d: %v", w, err)
	})
	return err == nil
}
