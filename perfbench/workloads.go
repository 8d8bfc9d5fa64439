package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wire"
	"repro/internal/workload"
)

// query is one entry of a read mix: the SQL, the strategy byte the
// client requests, and the engine strategy the oracle mirrors.
type query struct {
	name      string
	sql       string
	wireStrat byte
	engStrat  engine.Strategy
}

func ja2(name, sql string) query {
	return query{name, sql, wire.StrategyTransform, engine.TransformJA2}
}

func nested(name, sql string) query {
	return query{name, sql, wire.StrategyNested, engine.NestedIteration}
}

// workloadDef is one named workload: the read mix and the seeded data
// generator. A cluster workload runs behind a coordinator over three
// replicated workers, with one closed-loop reader and one open-loop
// writer; the others run on one served engine with two closed-loop
// readers.
type workloadDef struct {
	name    string
	cluster bool
	reads   []query
	gen     func(seed int64) dataset
	// passReps is how many times the traced run's single-threaded
	// passes repeat the mix.
	passReps int
	// setupRounds is how many times an untraced run boots and loads the
	// system; setup_s is the median. A sub-millisecond set-up needs many
	// rounds for a steady median.
	setupRounds int
}

// dataset is a workload's generated input. load fills a fresh
// single-node engine (the served one and the oracle); a cluster
// workload instead ships script through the coordinator, and its oracle
// executes the same script.
type dataset struct {
	load   func(db *engine.DB) error
	script string
}

var workloads = map[string]workloadDef{
	"paper-served": {name: "paper-served", reads: paperMix, gen: paperData, passReps: 100, setupRounds: 101},
	"ja2-large":    {name: "ja2-large", reads: ja2Mix(ja2Config(0)), gen: ja2Data, passReps: 2, setupRounds: 101},
	"cluster-rw":   {name: "cluster-rw", cluster: true, reads: clusterMix, gen: clusterData, passReps: 4, setupRounds: 21},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"paper-served", "ja2-large", "cluster-rw"}

// ---- paper-served: the paper mix over tables that fit the buffer pool ----

// paperMix is the established ten-query paper mix over Kiessling's
// PARTS/SUPPLY and the introduction's S/P/SP. The flagship COUNT and
// the division query also run under nested iteration.
var paperMix = []query{
	ja2("countbug-ja2", `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`),
	nested("countbug-ni", `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < 1-1-80)`),
	ja2("exists", `SELECT PNUM FROM PARTS
		WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`),
	ja2("not-exists", `SELECT PNUM FROM PARTS
		WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`),
	ja2("lt-any", `SELECT PNUM FROM PARTS
		WHERE QOH < ANY (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`),
	ja2("gt-all", `SELECT PNUM FROM PARTS
		WHERE QOH > ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)`),
	ja2("division-ja2", `SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
			WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`),
	nested("division-ni", `SELECT SNAME FROM S
		WHERE STATUS < (SELECT MAX(QTY) FROM SP
			WHERE PNO IN (SELECT PNO FROM P WHERE P.CITY = S.CITY))`),
	ja2("in-simple", `SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE QTY > 200)`),
	ja2("empty", `SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY
		WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 100000)`),
}

// paperData loads the paper's fixed example instances; the seed only
// orders each connection's queries.
func paperData(int64) dataset {
	return dataset{load: func(db *engine.DB) error {
		w := &workload.DB{Cat: db.Catalog(), Store: db.Store()}
		if err := workload.LoadKiessling(w); err != nil {
			return err
		}
		return workload.LoadSuppliers(w)
	}}
}

// ---- ja2-large: synthetic RI/RJ far larger than the buffer pool ----

// ja2Config sizes the synthetic relations: 5,000 outer tuples on 500
// pages and 10,000 inner tuples on 1,000 pages, against a 32-page pool.
func ja2Config(seed int64) workload.SyntheticConfig {
	return workload.SyntheticConfig{
		Name:        "ja2-large",
		OuterTuples: 5000, InnerTuples: 10000,
		OuterPerPage: 10, InnerPerPage: 10,
		JoinDomain: 500, Selectivity: 0.25, MatchFraction: 0.5,
		Seed: seed,
	}
}

// ja2Mix is one query of each nesting type the paper's cost analysis
// covers: type-N, type-J, and type-JA with COUNT and with MAX.
func ja2Mix(cfg workload.SyntheticConfig) []query {
	return []query{
		ja2("type-n", workload.TypeNQuery(cfg)),
		ja2("type-j", workload.TypeJQuery(cfg)),
		ja2("type-ja-count", workload.TypeJAQuery(cfg)),
		ja2("type-ja-max", workload.TypeJAMaxQuery(cfg)),
	}
}

// ja2Data generates RI(JC, VAL, FILT) and RJ(JC, VAL, FILT) with the
// distributions of workload.LoadSynthetic, seeded by the benchmark seed.
func ja2Data(seed int64) dataset {
	cfg := ja2Config(seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	intv := func(n int) value.Value { return value.NewInt(int64(n)) }
	outer := make([]storage.Tuple, cfg.OuterTuples)
	for k := range outer {
		outer[k] = storage.Tuple{intv(k % cfg.JoinDomain), intv(rng.Intn(8)), intv(k % 100)}
	}
	inner := make([]storage.Tuple, cfg.InnerTuples)
	for k := range inner {
		inner[k] = storage.Tuple{intv(rng.Intn(cfg.JoinDomain)), intv(rng.Intn(8)), intv((k * 7) % 100)}
	}
	cols := []schema.Column{
		{Name: "JC", Type: value.KindInt},
		{Name: "VAL", Type: value.KindInt},
		{Name: "FILT", Type: value.KindInt},
	}
	return dataset{load: func(db *engine.DB) error {
		for _, t := range []struct {
			name    string
			perPage int
			rows    []storage.Tuple
		}{
			{workload.OuterRelationName, cfg.OuterPerPage, outer},
			{workload.InnerRelationName, cfg.InnerPerPage, inner},
		} {
			if err := db.CreateRelation(&schema.Relation{Name: t.name, Columns: cols}, t.perPage); err != nil {
				return err
			}
			if err := db.Insert(t.name, t.rows...); err != nil {
				return err
			}
		}
		return nil
	}}
}

// ---- cluster-rw: replicated shards, co-located and shuffled reads ----

const (
	clusterSuppliers = 1000
	clusterWorkers   = 3
	clusterReplicas  = 2
)

// clusterPlacement puts the second copy of the shipments on PNO, so a
// query correlating it on SNO forces the shuffle round.
var clusterPlacement = map[string]string{"SP2": "PNO"}

// clusterMix is the distributable slice of the paper workload over
// S/SP, correlated on the placement key SNO, plus two queries over SP2
// that need it re-partitioned by SNO first.
var clusterMix = []query{
	ja2("count-zero", `SELECT S.SNO, S.SNAME FROM S
		WHERE 0 = (SELECT COUNT(SP.PNO) FROM SP WHERE SP.SNO = S.SNO)`),
	ja2("sum-ja2", `SELECT S.SNAME FROM S
		WHERE 900 <= (SELECT SUM(SP.QTY) FROM SP WHERE SP.SNO = S.SNO)`),
	ja2("in", `SELECT S.SNAME FROM S WHERE S.SNO IN (SELECT SP.SNO FROM SP WHERE SP.QTY > 490)`),
	ja2("not-exists", `SELECT S.SNAME FROM S
		WHERE NOT EXISTS (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)`),
	ja2("gt-all", `SELECT S.SNAME FROM S
		WHERE S.SNO > ALL (SELECT SP.PNO FROM SP WHERE SP.SNO = S.SNO)`),
	ja2("shuffle-count-zero", `SELECT S.SNO, S.SNAME FROM S
		WHERE 0 = (SELECT COUNT(SP2.PNO) FROM SP2 WHERE SP2.SNO = S.SNO)`),
	ja2("shuffle-in", `SELECT S.SNAME FROM S WHERE S.SNO IN (SELECT SP2.SNO FROM SP2 WHERE SP2.QTY > 490)`),
}

// clusterData generates the supplier database as one SQL script: 1,000
// suppliers (plus one with a NULL key), about 4,400 shipments (every eighth
// supplier ships nothing, so COUNT=0 groups exist, and two shipments
// have NULL supplier keys), and SP2, a copy of SP placed on PNO.
func clusterData(seed int64) dataset {
	rng := rand.New(rand.NewSource(seed))
	cities := []string{"PARIS", "LONDON", "ROME", "ATHENS", "OSLO", "CAIRO"}
	var b strings.Builder
	b.WriteString("CREATE TABLE S (SNO INTEGER, SNAME TEXT, CITY TEXT, PRIMARY KEY (SNO));\n")
	b.WriteString("CREATE TABLE SP (SNO INTEGER, PNO INTEGER, QTY INTEGER);\n")
	b.WriteString("CREATE TABLE SP2 (SNO INTEGER, PNO INTEGER, QTY INTEGER);\n")
	b.WriteString("INSERT INTO S VALUES\n")
	for i := 1; i <= clusterSuppliers; i++ {
		fmt.Fprintf(&b, "  (%d, 'SUP%04d', '%s'),\n", i, i, cities[rng.Intn(len(cities))])
	}
	b.WriteString("  (NULL, 'GHOST', 'LIMBO');\n")
	var rows []string
	for i := 1; i <= clusterSuppliers; i++ {
		if i%8 == 0 {
			continue
		}
		for n := rng.Intn(9); n >= 0; n-- {
			rows = append(rows, fmt.Sprintf("(%d, %d, %d)", i, 1+rng.Intn(200), 5+rng.Intn(500)))
		}
	}
	rows = append(rows, "(NULL, 10, 999)", "(NULL, 20, 888)")
	for _, t := range []string{"SP", "SP2"} {
		fmt.Fprintf(&b, "INSERT INTO %s VALUES\n  %s;\n", t, strings.Join(rows, ",\n  "))
	}
	return dataset{script: b.String()}
}

// ledgerDDL creates the table the writer inserts into; no read touches
// it, so writes never change a read's expected answer.
const ledgerDDL = "CREATE TABLE LEDGER (K INTEGER, V INTEGER, PRIMARY KEY (K))"

func ledgerInsert(k int64) string {
	return fmt.Sprintf("INSERT INTO LEDGER VALUES (%d, %d)", k, k*7%1000)
}
