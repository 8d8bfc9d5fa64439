package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/wal"
)

// servedConfig is the served default every workload runs with: NEST-JA2,
// parallelism 0, admission off (engine.New takes the 32-page pool).
var servedConfig = server.Config{Strategy: engine.TransformJA2}

const bufferPages = 32

// system is one booted system under test: a served engine, or three
// WAL-backed workers behind a coordinator that its own wire server
// fronts. Clients reach either through addr.
type system struct {
	addr    string
	db      *engine.DB           // single node: the served engine
	co      *cluster.Coordinator // cluster: the coordinator
	workers []*engine.DB         // cluster: the workers' engines
	links   []*linkStats         // cluster: traffic on each worker's listener
	front   *server.Server       // the server clients dial
	backs   []*server.Server     // cluster: the workers' servers
	serving sync.WaitGroup       // Serve loops
	walDir  string
}

// boot starts the system for def and loads data into it. It returns
// once the data is loaded, the ledger table exists and the front server
// accepts connections.
func boot(def workloadDef, data dataset) (*system, error) {
	sys := &system{}
	if err := sys.start(def, data); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func (sys *system) start(def workloadDef, data dataset) error {
	var err error
	if !def.cluster {
		sys.db = engine.New(bufferPages)
		if err := data.load(sys.db); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		if _, err := sys.db.Exec(ledgerDDL, engine.Options{}); err != nil {
			return err
		}
		sys.front = server.New(sys.db, servedConfig)
		sys.addr, err = sys.serve(sys.front, nil)
		return err
	}

	// WAL on, fsync off: a commit is acknowledged once its record is in
	// the OS page cache, and concurrent commits share one log flush
	// (group commit).
	if sys.walDir, err = os.MkdirTemp("", "perfbench-wal-"); err != nil {
		return err
	}
	addrs := make([]string, clusterWorkers)
	for i := range addrs {
		db := engine.New(bufferPages)
		if _, err := db.EnableDurability(filepath.Join(sys.walDir, fmt.Sprint(i)), wal.Options{}); err != nil {
			return err
		}
		sys.workers = append(sys.workers, db)
		ls := &linkStats{}
		sys.links = append(sys.links, ls)
		srv := server.New(db, servedConfig)
		sys.backs = append(sys.backs, srv)
		if addrs[i], err = sys.serve(srv, ls); err != nil {
			return err
		}
	}
	sys.co, err = cluster.New(cluster.Config{
		Workers:   addrs,
		Replicas:  clusterReplicas,
		Placement: clusterPlacement,
		IOTimeout: 10 * time.Second,
	})
	if err != nil {
		return err
	}
	if _, err := sys.co.ExecSQL(data.script, engine.Options{}); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if _, err := sys.co.ExecSQL(ledgerDDL, engine.Options{}); err != nil {
		return err
	}
	sys.front = server.NewBackend(sys.co, servedConfig)
	sys.addr, err = sys.serve(sys.front, nil)
	return err
}

// serve starts srv on a loopback port, counting its traffic into ls
// when ls is not nil, and returns the address.
func (sys *system) serve(srv *server.Server, ls *linkStats) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	var served net.Listener = lis
	if ls != nil {
		served = &countingListener{Listener: lis, st: ls}
	}
	sys.serving.Add(1)
	go func() {
		defer sys.serving.Done()
		srv.Serve(served)
	}()
	return lis.Addr().String(), nil
}

// close stops every server front to back, closes the workers' logs and
// removes their directories. Safe on a partially booted system.
func (sys *system) close() error {
	var errs []error
	if sys.front != nil {
		errs = append(errs, sys.front.Shutdown(5*time.Second))
	}
	if sys.co != nil {
		sys.co.Close()
	}
	for _, srv := range sys.backs {
		errs = append(errs, srv.Shutdown(5*time.Second))
	}
	sys.serving.Wait()
	for _, db := range sys.workers {
		if l := db.WAL(); l != nil {
			errs = append(errs, l.Close())
		}
	}
	if sys.walDir != "" {
		errs = append(errs, os.RemoveAll(sys.walDir))
	}
	return errors.Join(errs...)
}

// dial opens n client connections to the front server.
func (sys *system) dial(n int) ([]*client.Conn, error) {
	conns := make([]*client.Conn, 0, n)
	for range n {
		c, err := client.Dial(sys.addr, 10*time.Second)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// linkStats counts the traffic on one worker listener's connections:
// bytes in both directions, request/response turns, and busy time, the
// span from the first request byte of a turn to the last response
// byte written. Counting is off until enabled, so an untraced phase
// pays one atomic load per call.
type linkStats struct {
	on    atomic.Bool
	bytes atomic.Int64
	turns atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

type linkSnapshot struct {
	bytes, turns int64
	busy         time.Duration
}

func (ls *linkStats) snapshot() linkSnapshot {
	return linkSnapshot{ls.bytes.Load(), ls.turns.Load(), time.Duration(ls.busy.Load())}
}

type countingListener struct {
	net.Listener
	st *linkStats
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, st: l.st}, nil
}

// countingConn is the worker side of one coordinator connection. A turn
// starts when bytes arrive after the worker last wrote (or on the first
// read); every write extends the turn's busy span.
type countingConn struct {
	net.Conn
	st *linkStats

	mu      sync.Mutex
	pending bool      // bytes arrived since the last write
	mark    time.Time // busy time is accounted up to here
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.st.on.Load() {
		c.st.bytes.Add(int64(n))
		c.mu.Lock()
		if !c.pending {
			c.st.turns.Add(1)
			c.pending = true
			c.mark = time.Now()
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 && c.st.on.Load() {
		c.st.bytes.Add(int64(n))
		c.mu.Lock()
		if !c.mark.IsZero() {
			now := time.Now()
			c.st.busy.Add(int64(now.Sub(c.mark)))
			c.mark = now
		}
		c.pending = false
		c.mu.Unlock()
	}
	return n, err
}
