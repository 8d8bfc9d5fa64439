package cluster

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/qctx"
	"repro/internal/rowcodec"
	"repro/internal/schema"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers are the addresses of the worker nestedsqld instances. The
	// slice order defines shard numbering: shard i's primary is
	// Workers[i], its replicas the next R-1 workers round-robin.
	Workers []string
	// Replicas is the copy count R per shard (0 or 1 = unreplicated).
	// Must not exceed len(Workers).
	Replicas int
	// Placement overrides the partition column per table (UPPER names).
	// A table not listed defaults to its first primary-key column, or
	// its first column when no key is declared.
	Placement map[string]string
	// DialTimeout bounds each worker dial + handshake (0 = client default).
	DialTimeout time.Duration
	// IOTimeout bounds each per-frame wait on worker connections.
	IOTimeout time.Duration
	// ProbeInterval is the health prober's cadence: suspect workers are
	// probe-dialed back to healthy, dead workers are automatically
	// rejoined via snapshot re-ship (0 = 1s, negative = no prober).
	ProbeInterval time.Duration
}

func (c Config) replicas() int {
	if c.Replicas <= 1 {
		return 1
	}
	return c.Replicas
}

// Coordinator is the cluster's client-facing backend: it owns the
// catalog mirror and the placement map, fans DDL and DML out to all
// replicas of each shard, and runs distributable SELECTs as
// scatter/gather plans with per-shard failover. It implements
// server.Backend, so cmd/nestedsqld can serve it behind the same wire
// protocol a single-node engine uses.
//
// Each logical table T materializes as one physical table per shard,
// T__S<i>, present on every replica of shard i — a worker hosting R
// shards holds R such slices, and round 2 runs per shard against one
// live replica of that slice. SELECTs share an RWMutex read lock (the
// per-worker connection pools make concurrent statements real work, not
// just interleaved waits); DDL, DML, and rejoins take the write lock.
type Coordinator struct {
	cfg      Config
	nshards  int
	replicas int

	pools  []*client.Pool
	health *healthTracker

	mu    sync.RWMutex // catalog + placement: RLock SELECT, Lock DDL/DML/rejoin
	cat   *schema.Catalog
	place map[string]string // UPPER(table) -> UPPER(partition column)

	qid       atomic.Uint64 // staging-name counter
	runToken  string        // per-run nonce in staging names
	perWorker []int64       // round-2 gathers served, atomic

	staging struct {
		sync.Mutex
		tables map[string]map[int]bool // physical staging table -> workers holding it
	}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New dials every worker once to verify it is reachable and granted the
// cluster feature (only servers fronting a local engine do), then
// starts the health prober. Bootstrap needs the full fleet; failover
// covers workers lost after that.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if cfg.replicas() > len(cfg.Workers) {
		return nil, fmt.Errorf("cluster: %d replicas need at least %d workers, have %d",
			cfg.replicas(), cfg.replicas(), len(cfg.Workers))
	}
	co := &Coordinator{
		cfg:       cfg,
		nshards:   len(cfg.Workers),
		replicas:  cfg.replicas(),
		cat:       schema.NewCatalog(),
		place:     make(map[string]string),
		health:    newHealthTracker(len(cfg.Workers)),
		runToken:  newRunToken(),
		perWorker: make([]int64, len(cfg.Workers)),
		stop:      make(chan struct{}),
	}
	co.staging.tables = make(map[string]map[int]bool)
	opts := client.DialOptions{Timeout: cfg.DialTimeout, IOTimeout: cfg.IOTimeout}
	for _, addr := range cfg.Workers {
		co.pools = append(co.pools, client.NewPool(addr, opts, 4))
	}
	for w := range co.pools {
		if err := co.call(w, func(*client.Conn) error { return nil }); err != nil {
			co.Close()
			return nil, err
		}
	}
	if interval := cfg.ProbeInterval; interval >= 0 {
		if interval == 0 {
			interval = time.Second
		}
		co.wg.Add(1)
		go co.probeLoop(interval)
	}
	return co, nil
}

// Close stops the prober and drops every pooled worker connection.
func (co *Coordinator) Close() error {
	co.stopOnce.Do(func() { close(co.stop) })
	co.wg.Wait()
	for _, p := range co.pools {
		p.Close()
	}
	return nil
}

// Drain satisfies server.Backend. The coordinator holds no queries of
// its own — in-flight statements finish under the statement lock, and
// the workers drain their engines during their own shutdowns.
func (co *Coordinator) Drain(time.Duration) error { return nil }

// NumWorkers returns the worker (and shard) count.
func (co *Coordinator) NumWorkers() int { return len(co.cfg.Workers) }

// Replicas returns the configured copy count per shard.
func (co *Coordinator) Replicas() int { return co.replicas }

// WorkerStates returns every worker's failover state name
// (healthy/suspect/dead/rejoining), index-aligned with Config.Workers.
func (co *Coordinator) WorkerStates() []string { return co.health.snapshot() }

// GatherCounts returns how many round-2 shard queries each worker has
// served, for load reporting (benchpaper's per-node q/s).
func (co *Coordinator) GatherCounts() []int64 {
	out := make([]int64, len(co.perWorker))
	for i := range out {
		out[i] = atomic.LoadInt64(&co.perWorker[i])
	}
	return out
}

// physName is the shard-suffixed physical table backing one shard's
// slice of a logical table. The "__" namespace is reserved at CREATE,
// so physical names can never collide with user tables.
func physName(table string, shard int) string {
	return fmt.Sprintf("%s__S%d", table, shard)
}

// newRunToken returns an identifier-safe nonce distinguishing this
// coordinator incarnation's staging tables from any prior run's.
func newRunToken() string {
	var b [4]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
	}
	return strings.ToUpper(hex.EncodeToString(b[:]))
}

// replicasOf lists the workers hosting shard s: the primary s and the
// next replicas-1 workers round-robin.
func (co *Coordinator) replicasOf(s int) []int {
	out := make([]int, co.replicas)
	for j := range out {
		out[j] = (s + j) % co.nshards
	}
	return out
}

// hostedShards lists the shards whose slices worker w holds.
func (co *Coordinator) hostedShards(w int) []int {
	out := make([]int, co.replicas)
	for j := range out {
		out[j] = (w - j + co.nshards) % co.nshards
	}
	return out
}

// call runs one exchange with worker w on a pooled connection and
// applies the rules every worker call shares. A transport failure —
// including a failed dial or handshake, or a server that does not grant
// the cluster feature — discards the connection, counts against the
// breaker, and comes back as *WorkerLostError. A typed answer proves the
// worker alive: the connection goes back to the pool and the error
// passes through untouched. A clean exchange heals the breaker.
func (co *Coordinator) call(w int, fn func(*client.Conn) error) error {
	conn, err := co.pools[w].Get()
	lost := err != nil
	if err == nil {
		if !conn.Cluster() {
			err, lost = errors.New("did not grant the cluster feature"), true
		} else if err = fn(conn); err != nil {
			lost = transportFailure(err)
		}
	}
	if lost {
		co.pools[w].Discard(conn)
		co.health.markFailure(w)
		return &WorkerLostError{Worker: w, Addr: co.pools[w].Addr(), Cause: err}
	}
	co.pools[w].Put(conn)
	if err == nil {
		co.health.markSuccess(w)
	}
	return err
}

// collect runs one SQL statement on worker w and materializes its answer.
func (co *Coordinator) collect(w int, sql string) (*client.Result, error) {
	var res *client.Result
	err := co.call(w, func(c *client.Conn) error {
		var err error
		res, err = c.Collect(sql, client.Options{Timeout: co.cfg.IOTimeout})
		return err
	})
	return res, err
}

// ExecSQL runs a script of statements against the cluster, mirroring
// engine.Exec's contract: the result is the last SELECT's, Affected
// accumulates DML counts, and a failing statement aborts the script
// with prior statements applied. SELECTs share the read lock; DDL and
// DML serialize under the write lock.
func (co *Coordinator) ExecSQL(sql string, opts engine.Options) (*engine.Result, error) {
	stmts, err := sqlparser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *engine.Result
	var affected int64
	for _, stmt := range stmts {
		if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
			co.mu.RLock()
			res, err := co.query(sel.Query, opts)
			co.mu.RUnlock()
			if err != nil {
				return nil, err
			}
			last = res
			continue
		}
		co.mu.Lock()
		n, err := co.execWrite(stmt)
		co.mu.Unlock()
		if err != nil {
			return nil, err
		}
		affected += n
	}
	if last == nil {
		last = &engine.Result{Strategy: opts.Strategy}
	}
	last.Affected = affected
	return last, nil
}

// execWrite dispatches one non-SELECT statement under the write lock.
func (co *Coordinator) execWrite(stmt sqlparser.Statement) (int64, error) {
	switch stmt := stmt.(type) {
	case *sqlparser.CreateTableStmt:
		return 0, co.execCreate(stmt.Relation)
	case *sqlparser.InsertStmt:
		return co.execInsert(stmt)
	case *sqlparser.DeleteStmt:
		return co.execFilterDML(stmt.Table, stmt.Where, stmt)
	case *sqlparser.UpdateStmt:
		return co.execFilterDML(stmt.Table, stmt.Where, stmt)
	case *sqlparser.DropTableStmt:
		return 0, co.execDrop(stmt.Table)
	default:
		return 0, fmt.Errorf("cluster: unsupported statement %T", stmt)
	}
}

// execCreate defines the relation in the catalog mirror, picks its
// placement column, and creates each shard's physical slice on every
// live replica of that shard. A replica that drops its link mid-CREATE
// is marked dead (it missed DDL another replica applied) rather than
// failing the statement — as long as every shard lands on at least one
// replica.
func (co *Coordinator) execCreate(rel *schema.Relation) error {
	if strings.Contains(rel.Name, "__") {
		return fmt.Errorf("cluster: table name %s collides with the reserved __ shard namespace", rel.Name)
	}
	if err := co.cat.Define(rel); err != nil {
		return err
	}
	up := strings.ToUpper(rel.Name)
	place := ""
	if p, ok := co.cfg.Placement[up]; ok {
		if rel.ColumnIndex(p) < 0 {
			co.cat.Drop(rel.Name)
			return fmt.Errorf("cluster: placement column %s does not exist in %s", p, rel.Name)
		}
		place = strings.ToUpper(p)
	} else if len(rel.Key) > 0 {
		place = strings.ToUpper(rel.Key[0])
	} else {
		place = strings.ToUpper(rel.Columns[0].Name)
	}
	type site struct{ w, s int }
	var created []site
	undo := func() {
		for _, c := range created {
			co.dropIgnoreMissing(c.w, physName(rel.Name, c.s))
		}
		co.cat.Drop(rel.Name)
	}
	for s := 0; s < co.nshards; s++ {
		acks := 0
		var lastErr error
		for _, w := range co.replicasOf(s) {
			if !co.health.live(w) {
				continue
			}
			srel := &schema.Relation{Name: physName(rel.Name, s), Columns: rel.Columns, Key: rel.Key}
			if _, err := co.collect(w, RenderCreate(srel)); err != nil {
				if transportFailure(err) {
					// This replica missed DDL its peers applied: diverged.
					co.health.markDead(w)
					lastErr = err
					continue
				}
				undo()
				return err
			}
			created = append(created, site{w, s})
			acks++
		}
		if acks == 0 {
			undo()
			if lastErr != nil {
				return fmt.Errorf("%w %d: %w", ErrShardUnavailable, s, lastErr)
			}
			return fmt.Errorf("%w %d", ErrShardUnavailable, s)
		}
	}
	co.place[up] = place
	return nil
}

// execInsert coerces each row's literals against the schema — hashing
// must see the value a worker will store, not the raw literal, or a
// DATE partition key would land rows on the wrong shard — then routes
// every row to its shard and fans each shard's rows out to all live
// replicas synchronously: the client's ack means every live replica
// logged the rows.
func (co *Coordinator) execInsert(stmt *sqlparser.InsertStmt) (int64, error) {
	rel, ok := co.cat.Lookup(stmt.Table)
	if !ok {
		return 0, fmt.Errorf("cluster: unknown relation %s", stmt.Table)
	}
	pidx := rel.ColumnIndex(co.place[strings.ToUpper(rel.Name)])
	if pidx < 0 {
		return 0, fmt.Errorf("cluster: relation %s has no placement column", rel.Name)
	}
	part := Partitioner{NumShards: co.nshards, KeyCols: []int{pidx}}
	routed := make([][]storage.Tuple, co.nshards)
	for _, row := range stmt.Rows {
		if len(row) != len(rel.Columns) {
			return 0, fmt.Errorf("cluster: INSERT row has %d values, %s has %d columns",
				len(row), rel.Name, len(rel.Columns))
		}
		t := make(storage.Tuple, len(row))
		for i, v := range row {
			cv, err := engine.CoerceInsertValue(v, rel.Columns[i].Type)
			if err != nil {
				return 0, fmt.Errorf("cluster: column %s of %s: %w", rel.Columns[i].Name, rel.Name, err)
			}
			t[i] = cv
		}
		d := part.Shard(t)
		routed[d] = append(routed[d], t)
	}
	write := func(w, s int) (int64, error) {
		return co.insertRows(w, physName(rel.Name, s), routed[s], loadLimit)
	}
	return co.fanOutWrite(routed, write)
}

// fanOutWrite runs one write per (shard, live replica) concurrently and
// settles each shard: at least one ack commits the shard (its row count
// counted once); a replica that failed while a peer acked has diverged
// and is marked dead; a shard with zero acks fails the statement.
func (co *Coordinator) fanOutWrite(routed [][]storage.Tuple, write func(w, s int) (int64, error)) (int64, error) {
	type attempt struct {
		w, s int
		n    int64
		err  error
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	attempts := make(map[int][]*attempt) // shard -> replica attempts
	for s := 0; s < co.nshards; s++ {
		if routed != nil && len(routed[s]) == 0 {
			continue
		}
		for _, w := range co.replicasOf(s) {
			if !co.health.live(w) {
				continue
			}
			a := &attempt{w: w, s: s}
			mu.Lock()
			attempts[s] = append(attempts[s], a)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.n, a.err = write(a.w, a.s)
			}()
		}
	}
	wg.Wait()
	var affected int64
	for s := 0; s < co.nshards; s++ {
		as := attempts[s]
		if routed != nil && len(routed[s]) == 0 {
			continue
		}
		if len(as) == 0 {
			return affected, fmt.Errorf("%w %d", ErrShardUnavailable, s)
		}
		acked := false
		var firstErr error
		for _, a := range as {
			if a.err == nil && !acked {
				affected += a.n
				acked = true
			} else if a.err != nil && firstErr == nil {
				firstErr = a.err
			}
		}
		if !acked {
			return affected, firstErr
		}
		for _, a := range as {
			if a.err != nil {
				// A peer acked what this replica missed: it has diverged
				// and must rejoin from a snapshot before serving again.
				co.health.markDead(a.w)
			}
		}
	}
	return affected, nil
}

// loadLimit caps one LoadRows payload: the most a checksummed frame
// carries besides its type byte and CRC32C trailer.
const loadLimit = wire.MaxFrame - 5

// insertRows appends rows to one worker's physical table in LoadRows
// frames, each as many rows as fit in limit encoded bytes (loadLimit in
// production), and returns the count the worker acknowledged.
func (co *Coordinator) insertRows(w int, table string, rows []storage.Tuple, limit int) (int64, error) {
	var n int64
	for len(rows) > 0 {
		payload, rest, err := loadPayload(table, rows, limit)
		if err != nil {
			return n, err
		}
		rows = rest
		err = co.call(w, func(c *client.Conn) error {
			done, err := c.Load(payload)
			n += done.Rows
			return err
		})
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// loadPayload encodes the longest prefix of rows whose WAL RecInsert
// record fits in limit bytes, returning the record and the rows left.
func loadPayload(table string, rows []storage.Tuple, limit int) ([]byte, []storage.Tuple, error) {
	// The empty record ends in a one-byte row count; reserve the widest
	// count instead.
	size := len(wal.AppendPayload(nil, wal.Record{Type: wal.RecInsert, Table: table})) - 1 + binary.MaxVarintLen64
	var scratch []byte
	k := 0
	for ; k < len(rows); k++ {
		scratch = rowcodec.AppendTuple(scratch[:0], rows[k])
		if size+len(scratch) > limit {
			break
		}
		size += len(scratch)
	}
	if k == 0 {
		return nil, nil, fmt.Errorf("cluster: a %d-byte row of %s exceeds the %d-byte frame limit", len(scratch), table, limit)
	}
	return wal.AppendPayload(nil, wal.Record{Type: wal.RecInsert, Table: table, Rows: rows[:k]}), rows[k:], nil
}

// execFilterDML fans a DELETE or UPDATE whose WHERE clause is row-local
// out to every live replica of every shard, rewritten per shard against
// the physical table. Subqueries are rejected: their evaluation would
// see only each shard's slice, deleting (or keeping) the wrong rows.
// Affected counts one replica per shard — the copies are identical.
func (co *Coordinator) execFilterDML(table string, where []ast.Predicate, stmt sqlparser.Statement) (int64, error) {
	if _, ok := co.cat.Lookup(table); !ok {
		return 0, fmt.Errorf("cluster: unknown relation %s", table)
	}
	for _, p := range where {
		if len(ast.SubqueriesOf(p)) > 0 {
			return 0, notDistributable("DELETE/UPDATE with a subquery would evaluate it per-shard")
		}
	}
	sqls := make([]string, co.nshards)
	for s := range sqls {
		sqls[s] = renderShardDML(stmt, s)
	}
	write := func(w, s int) (int64, error) {
		res, err := co.collect(w, sqls[s])
		if err != nil {
			return 0, err
		}
		return res.Done.Rows, nil
	}
	return co.fanOutWrite(nil, write)
}

// renderShardDML rewrites a single-table DELETE/UPDATE against one
// shard's physical table. Column qualifiers are stripped: DML with a
// subquery is refused, so every reference belongs to the one renamed
// table and an unqualified name is unambiguous.
func renderShardDML(stmt sqlparser.Statement, shard int) string {
	switch st := stmt.(type) {
	case *sqlparser.DeleteStmt:
		out := &sqlparser.DeleteStmt{Table: physName(st.Table, shard), Where: stripQualifiers(st.Where)}
		return out.String()
	case *sqlparser.UpdateStmt:
		out := &sqlparser.UpdateStmt{Table: physName(st.Table, shard), Set: st.Set, Where: stripQualifiers(st.Where)}
		return out.String()
	default:
		panic(fmt.Sprintf("cluster: renderShardDML on %T", stmt))
	}
}

// stripQualifiers deep-copies the predicates with every column's table
// qualifier cleared.
func stripQualifiers(where []ast.Predicate) []ast.Predicate {
	if len(where) == 0 {
		return nil
	}
	out := make([]ast.Predicate, len(where))
	for i, p := range where {
		out[i] = ast.ClonePredicate(p)
	}
	qb := &ast.QueryBlock{Where: out}
	qb.RewriteLocalColumns(func(c ast.ColumnRef) ast.ColumnRef {
		c.Table = ""
		return c
	})
	return out
}

// execDrop removes every shard slice from every live replica. Transport
// failures mark the replica dead and move on — the table is gone from
// the catalog either way, and a rejoin rebuilds only cataloged tables.
func (co *Coordinator) execDrop(table string) error {
	rel, ok := co.cat.Lookup(table)
	if !ok {
		return fmt.Errorf("cluster: unknown relation %s", table)
	}
	for s := 0; s < co.nshards; s++ {
		for _, w := range co.replicasOf(s) {
			if !co.health.live(w) {
				continue
			}
			if err := co.dropIgnoreMissing(w, physName(rel.Name, s)); err != nil {
				if transportFailure(err) {
					co.health.markDead(w)
					continue
				}
				return err
			}
		}
	}
	co.cat.Drop(table)
	delete(co.place, strings.ToUpper(table))
	return nil
}

// dropIgnoreMissing drops one physical table on one worker, treating
// "unknown relation" as success (already gone).
func (co *Coordinator) dropIgnoreMissing(w int, phys string) error {
	_, err := co.collect(w, "DROP TABLE "+phys)
	if err != nil && unknownRelation(err) {
		return nil
	}
	return err
}

// query runs one SELECT as a distributed plan:
//
//	round 1 (only when some table's placement differs from the key the
//	         query requires): shuffle — each shard's slice scatters
//	         partitioned by the required key, and the coordinator lands
//	         the rows in per-shard staging tables on every replica;
//	round 2: the query — rewritten per shard over the physical tables —
//	         runs whole against one live replica of each shard, failing
//	         over to the next replica on a lost link, and the per-shard
//	         results are concatenated in shard order.
//
// Analyze proves the concatenation equals the single-node result; a
// query it rejects fails with ErrNotDistributable rather than running
// wrong.
func (co *Coordinator) query(qb *ast.QueryBlock, opts engine.Options) (*engine.Result, error) {
	outs, err := schema.Resolve(co.cat, qb)
	if err != nil {
		return nil, err
	}
	req, err := Analyze(qb)
	if err != nil {
		return nil, err
	}

	// okBy[s][w]: replica w of shard s holds everything round 2 needs —
	// shuffles knock out replicas that missed a staging landing.
	okBy := make([][]bool, co.nshards)
	for s := range okBy {
		okBy[s] = make([]bool, co.nshards)
		for w := range okBy[s] {
			okBy[s][w] = true
		}
	}
	staged := make(map[string]string) // UPPER(table) -> staging logical name
	var stagedPhys []string
	defer func() {
		for _, phys := range stagedPhys {
			co.dropStaging(phys)
		}
	}()
	for table, col := range req {
		if col == "" || col == co.place[table] {
			continue // co-located (or placement-independent) already
		}
		sname, phys, err := co.shuffle(table, col, opts, okBy)
		stagedPhys = append(stagedPhys, phys...)
		if err != nil {
			return nil, err
		}
		staged[table] = sname
	}

	// Rewrite once per shard: record every table reference and its
	// logical target, pin the binding name so column references still
	// resolve, then rename serially and render each shard's SQL before
	// any of them dispatches.
	type refSite struct {
		ref     *ast.TableRef
		logical string
	}
	var sites []refSite
	ast.VisitBlocks(qb, func(b *ast.QueryBlock, _ int) bool {
		for i := range b.From {
			t := &b.From[i]
			logical := t.Relation
			if sname, ok := staged[strings.ToUpper(t.Relation)]; ok {
				logical = sname
			}
			t.Alias = t.Binding()
			sites = append(sites, refSite{t, logical})
		}
		return true
	})
	sqls := make([]string, co.nshards)
	for s := range sqls {
		for _, site := range sites {
			site.ref.Relation = physName(site.logical, s)
		}
		sqls[s] = qb.String()
	}

	cols := make([]string, len(outs))
	for i, o := range outs {
		cols[i] = o.Name
	}
	return co.gather(sqls, cols, opts, okBy)
}

// shuffle re-partitions one table by the required key into fresh
// per-shard staging tables on every replica (round 1). Each shard's
// slice is scattered from one live replica — failing over like a
// gather — and every landed row fans out to all replicas of its
// destination shard, so round 2 can fail over too. Returns the staging
// logical name and every physical staging table created (for cleanup,
// even on error).
func (co *Coordinator) shuffle(table, keyCol string, opts engine.Options, okBy [][]bool) (string, []string, error) {
	rel, ok := co.cat.Lookup(table)
	if !ok {
		return "", nil, fmt.Errorf("cluster: unknown relation %s", table)
	}
	kidx := rel.ColumnIndex(keyCol)
	if kidx < 0 {
		return "", nil, fmt.Errorf("cluster: relation %s has no column %s", rel.Name, keyCol)
	}
	// The run token keeps staging names from a previous coordinator
	// incarnation out of play: staging DDL is durable on the workers and
	// cleanup is best-effort, so a counter alone — restarting at 1 —
	// would collide with a remnant leaked by a crashed run.
	sname := fmt.Sprintf("%s__X%s_%d", rel.Name, co.runToken, co.qid.Add(1))

	// Create the staging slices. A replica that cannot take its slice is
	// excluded from this query's round-2 candidates for that shard, not
	// failed — replication exists to absorb exactly this.
	var phys []string
	for d := 0; d < co.nshards; d++ {
		pname := physName(sname, d)
		// Key columns survive re-partitioning (a per-shard subset of a
		// globally unique key is still unique), and keeping them
		// preserves the planner's duplicate-safety reasoning.
		srel := &schema.Relation{Name: pname, Columns: rel.Columns, Key: rel.Key}
		acks := 0
		for _, w := range co.replicasOf(d) {
			if !co.health.live(w) {
				okBy[d][w] = false
				continue
			}
			if _, err := co.collect(w, RenderCreate(srel)); err != nil {
				if transportFailure(err) {
					okBy[d][w] = false
					continue
				}
				return "", phys, err
			}
			co.stagingAdd(pname, w)
			if acks == 0 {
				phys = append(phys, pname)
			}
			acks++
		}
		if acks == 0 {
			return "", phys, fmt.Errorf("%w %d: no replica can stage %s", ErrShardUnavailable, d, sname)
		}
	}

	// Scatter: each source shard's slice partitions by the new key on
	// whichever live replica serves it, buffered per attempt so a
	// failover never double-counts rows.
	sq := wire.ShardQuery{
		TimeoutMicros: opts.Timeout.Microseconds(),
		Strategy:      wire.StrategyNested, // a flat scan; no transform to pick
		NumShards:     int64(co.nshards),
		KeyCols:       []int64{int64(kidx)},
	}
	colNames := make([]string, len(rel.Columns))
	for i, c := range rel.Columns {
		colNames[i] = c.Name
	}
	sourced := make([][][]storage.Tuple, co.nshards)
	scatterErr := make([]error, co.nshards)
	var wg sync.WaitGroup
	for s := 0; s < co.nshards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			q := sq
			q.SQL = "SELECT " + strings.Join(colNames, ", ") + " FROM " + physName(rel.Name, s)
			sourced[s], scatterErr[s] = co.scatterShard(s, q)
		}(s)
	}
	wg.Wait()
	for s, err := range scatterErr {
		if err != nil {
			return "", phys, fmt.Errorf("cluster: scatter of %s shard %d: %w", rel.Name, s, err)
		}
	}
	routed := make([][]storage.Tuple, co.nshards)
	for _, local := range sourced {
		for d, rows := range local {
			routed[d] = append(routed[d], rows...)
		}
	}

	// Land each destination slice on every replica still in the running.
	type landing struct {
		d, w int
		err  error
	}
	var landings []*landing
	for d := 0; d < co.nshards; d++ {
		for _, w := range co.replicasOf(d) {
			if !okBy[d][w] || !co.health.live(w) {
				okBy[d][w] = false
				continue
			}
			l := &landing{d: d, w: w}
			landings = append(landings, l)
			wg.Add(1)
			go func(l *landing) {
				defer wg.Done()
				_, l.err = co.insertRows(l.w, physName(sname, l.d), routed[l.d], loadLimit)
			}(l)
		}
	}
	wg.Wait()
	acked := make([]int, co.nshards)
	var firstErr error
	for _, l := range landings {
		if l.err != nil {
			if !transportFailure(l.err) && firstErr == nil {
				firstErr = l.err
			}
			okBy[l.d][l.w] = false
			continue
		}
		acked[l.d]++
	}
	if firstErr != nil {
		return "", phys, fmt.Errorf("cluster: landing shuffle of %s: %w", rel.Name, firstErr)
	}
	for d, n := range acked {
		if n == 0 {
			return "", phys, fmt.Errorf("%w %d: no replica landed %s", ErrShardUnavailable, d, sname)
		}
	}
	return sname, phys, nil
}

// scatterShard streams one shard's scatter from the first live replica
// that can serve it, returning rows routed by destination. Rows buffer
// per attempt: a mid-stream loss discards the partial buffer and the
// next replica restarts the scatter from scratch.
func (co *Coordinator) scatterShard(s int, q wire.ShardQuery) ([][]storage.Tuple, error) {
	var lastErr error
	for _, w := range co.replicasOf(s) {
		if !co.health.live(w) {
			continue
		}
		local := make([][]storage.Tuple, co.nshards)
		err := co.call(w, func(c *client.Conn) error {
			_, err := c.Scatter(q, func(b wire.ShardBatch) error {
				if int(b.Shard) >= len(local) {
					return fmt.Errorf("cluster: worker %d sent shard %d of %d", w, b.Shard, len(local))
				}
				local[b.Shard] = append(local[b.Shard], b.Batch.Rows...)
				return nil
			})
			return err
		})
		switch {
		case err == nil:
			return local, nil
		case transportFailure(err):
			lastErr = err
		case unknownRelation(err):
			// The replica is missing a physical table it must host: it
			// restarted empty and needs a snapshot rejoin.
			co.health.markDead(w)
			lastErr = err
		default:
			return nil, err
		}
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, fmt.Errorf("%w %d", ErrShardUnavailable, s)
}

// gather runs each shard's round-2 SQL against one live replica,
// concurrently across shards, failing over within a shard on transport
// loss — each attempt buffers its rows, so a retried round never
// double-counts. Results concatenate in shard order, keeping gathered
// row order as deterministic as the sequential version's. Results
// stream through opts.Sink when the caller set one (the network server
// does) and materialize otherwise. Columns come from the coordinator's
// own resolution, so empty results still carry the full schema.
func (co *Coordinator) gather(sqls []string, cols []string, opts engine.Options, okBy [][]bool) (*engine.Result, error) {
	sink := opts.Sink
	batchRows := 64
	if sink != nil {
		if sink.BatchRows > 0 {
			batchRows = sink.BatchRows
		}
		if err := sink.Columns(cols); err != nil {
			return nil, err
		}
	}
	res := &engine.Result{Columns: cols, Strategy: opts.Strategy}
	copts := client.Options{
		Timeout:  opts.Timeout,
		Strategy: wireStrategy(opts.Strategy),
	}

	type shard struct {
		rows  []storage.Tuple
		stats wire.Done
		err   error
	}
	shards := make([]shard, co.nshards)
	var wg sync.WaitGroup
	for s := 0; s < co.nshards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sh := &shards[s]
			var lastErr error
			tried := 0
			for _, w := range co.replicasOf(s) {
				if !co.health.live(w) || (okBy != nil && !okBy[s][w]) {
					continue
				}
				tried++
				rows, stats, err := co.shardRound(w, sqls[s], copts, opts.MaxRows)
				if err == nil {
					sh.rows, sh.stats = rows, stats
					atomic.AddInt64(&co.perWorker[w], 1)
					return
				}
				if transportFailure(err) {
					lastErr = err
					continue
				}
				if unknownRelation(err) {
					co.health.markDead(w)
					lastErr = err
					continue
				}
				sh.err = err // typed and deterministic: propagate, no failover
				return
			}
			switch {
			case lastErr != nil:
				sh.err = lastErr
			case tried == 0:
				sh.err = fmt.Errorf("%w %d", ErrShardUnavailable, s)
			}
		}(s)
	}
	wg.Wait()

	// Settle every shard before emitting anything: all results are fully
	// buffered at this point, so a failed shard (or a blown row budget)
	// can surface as one clean typed error instead of partial rows
	// already flushed to the client followed by an error frame.
	var total int64
	for s := range shards {
		if shards[s].err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", s, shards[s].err)
		}
		total += int64(len(shards[s].rows))
	}
	if opts.MaxRows > 0 && total > opts.MaxRows {
		return nil, qctx.ErrRowBudget
	}

	var pending []storage.Tuple
	for s := range shards {
		sh := &shards[s]
		for _, row := range sh.rows {
			if sink != nil {
				pending = append(pending, row)
				if len(pending) >= batchRows {
					if err := sink.Batch(pending); err != nil {
						return nil, err
					}
					pending = nil
				}
			} else {
				res.Rows = append(res.Rows, row)
			}
		}
		res.Stats.Reads += sh.stats.Reads
		res.Stats.Writes += sh.stats.Writes
		res.FellBack = res.FellBack || sh.stats.FellBack
	}
	if sink != nil && len(pending) > 0 {
		if err := sink.Batch(pending); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// shardRound runs one shard's round-2 query on one worker, buffering
// the rows (the failover fence: nothing merges until the round
// succeeds whole).
func (co *Coordinator) shardRound(w int, sql string, copts client.Options, maxRows int64) ([]storage.Tuple, wire.Done, error) {
	var rows []storage.Tuple
	var stats wire.Done
	err := co.call(w, func(c *client.Conn) error {
		st, err := c.Query(sql, copts)
		if err != nil {
			return err
		}
		for st.Next() {
			rows = append(rows, append(storage.Tuple(nil), st.Row()...))
			if maxRows > 0 && int64(len(rows)) > maxRows {
				// One shard already exceeds the global budget: stop pulling
				// before a runaway result fills the heap.
				st.Close()
				return qctx.ErrRowBudget
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		stats = st.Stats()
		return nil
	})
	if err != nil {
		return nil, wire.Done{}, err
	}
	return rows, stats, nil
}

// wireStrategy maps the engine strategy the session resolved into the
// explicit wire byte for the workers — the coordinator never lets a
// worker's own default win, or mixed worker configs would give
// strategy-mixed (and thus trace-divergent) gathers.
func wireStrategy(s engine.Strategy) byte {
	switch s {
	case engine.TransformJA2:
		return wire.StrategyTransform
	case engine.TransformKim:
		return wire.StrategyKim
	case engine.NestedIteration:
		return wire.StrategyNested
	default:
		return wire.StrategyDefault
	}
}

// RenderCreate turns a schema.Relation back into CREATE TABLE SQL —
// broadcast to workers on DDL, and shipped as SnapshotMeta when a
// rejoining worker rebuilds a slice.
func RenderCreate(rel *schema.Relation) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(rel.Name)
	b.WriteString(" (")
	for i, c := range rel.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteString(" ")
		b.WriteString(typeName(c.Type))
	}
	if len(rel.Key) > 0 {
		b.WriteString(", PRIMARY KEY (")
		b.WriteString(strings.Join(rel.Key, ", "))
		b.WriteString(")")
	}
	b.WriteString(")")
	return b.String()
}

func typeName(k value.Kind) string {
	switch k {
	case value.KindInt:
		return "INTEGER"
	case value.KindFloat:
		return "FLOAT"
	case value.KindDate:
		return "DATE"
	default:
		return "TEXT"
	}
}
