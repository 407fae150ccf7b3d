// Command fdbserver serves one or more databases over HTTP/JSON,
// executing SQL with the factorised-database engine. The data is loaded
// once into a shared read-only in-memory store; queries run concurrently
// through a bounded worker pool, and a per-database LRU plan cache lets
// repeated statements skip parsing and f-plan optimisation.
//
// Usage:
//
//	fdbserver -data ./data                      # one database ("data")
//	fdbserver -data shop=./shop -data hr=./hr   # several, first is default
//	fdbserver -data ./data -listen :9000 -workers 8 -cache 512
//	fdbserver -data shop=./shop.fdbcat -mmap    # catalogue snapshot file
//
// A -data argument may name a directory or a catalogue snapshot:
//
//   - a directory containing catalog.fdbcat boots from that snapshot —
//     schema, tuples and prebuilt factorisations load with contiguous
//     reads instead of CSV parsing and re-sorting;
//   - otherwise every *.csv file in the directory becomes a relation
//     named after the file (header row = attribute names);
//   - a path ending in .fdbcat is loaded as a snapshot file directly.
//
// With -mmap, snapshots are memory-mapped and used in place (zero-copy:
// boot cost is metadata only; data pages fault in on demand).
//
// A -mutable argument serves a writable database from a mutable
// catalogue directory (snapshot + write-ahead log; see fdb.OpenMutable):
//
//	fdbserver -mutable shop=./shopdir            # open existing
//	fdbserver -mutable shop=./shopdir=seed.fdbcat  # initialise from snapshot
//
// Writable databases accept INSERT / DELETE / UPSERT through POST /exec
// (acknowledged only after the WAL commit) and fold their log into a
// fresh snapshot on POST /compact or automatically past -compactwal
// bytes of log.
//
// With -coordinator, the server becomes the front of a scatter-gather
// cluster (see docs/PROTOCOL.md and the "Distributed serving" section
// of ARCHITECTURE.md): the single -data catalogue is partitioned by
// root-union range into one snapshot per -shards group, shipped to
// every replica of each group through POST /shard/install, and queries
// fan out over the shard set with the streams stitched back into serial
// output order. Each -shards flag names one shard's replica set as a
// comma-separated list of worker base URLs; -replicas asserts the
// expected replica count per group. Workers are plain fdbserver
// processes started with -sharddir, which enables the shard-install
// endpoint and persists received snapshots there for warm restarts:
//
//	fdbserver -listen :9001 -sharddir /var/fdb/shards   # worker 1
//	fdbserver -listen :9002 -sharddir /var/fdb/shards   # worker 2
//	fdbserver -coordinator -data shop=./shop \
//	    -shards http://h1:9001,http://h1b:9001 \
//	    -shards http://h2:9002,http://h2b:9002 -replicas 2
//
// Queries the cluster cannot answer remotely (joins, projections that
// break the merge order) run on the coordinator's own full catalogue,
// so every statement that works serially works against the cluster.
//
// Endpoints:
//
//	POST /query     {"sql": "SELECT ...", "db": "shop"}
//	POST /exec      {"sql": "INSERT INTO ...", "db": "shop"}
//	POST /compact   {"db": "shop"} — fold the WAL into a snapshot
//	POST /snapshot  {"db": "shop"} (optional) — persist catalogues
//	                atomically to their -data locations
//	GET  /healthz   liveness probe (503 while draining)
//	GET  /stats     query counts, latency percentiles, cache hit rates,
//	                write/WAL/compaction gauges
//
// Example session:
//
//	curl -s localhost:8334/query -d '{"sql":"SELECT customer, SUM(price) AS revenue FROM Orders, Packages, Items WHERE package = package2 AND item = item2 GROUP BY customer ORDER BY revenue DESC LIMIT 3"}'
//	curl -s -X POST localhost:8334/snapshot
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, new queries are refused, and the process exits only after
// every in-flight query — including streaming responses — has drained.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/factordb/fdb"
	"github.com/factordb/fdb/internal/catalog"
	"github.com/factordb/fdb/internal/cluster"
	"github.com/factordb/fdb/internal/server"
)

// snapshotBase is the snapshot filename used inside -data directories.
const snapshotBase = "catalog.fdbcat"

// dataFlags collects repeated -data flags of the form "dir" or
// "name=dir", preserving order (the first is the default database).
type dataFlags struct {
	names []string
	dirs  []string
}

func (d *dataFlags) String() string { return strings.Join(d.dirs, ",") }

func (d *dataFlags) Set(v string) error {
	name, dir := "", v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, dir = v[:i], v[i+1:]
	}
	if dir == "" {
		return errors.New("empty data directory")
	}
	if name == "" {
		name = filepath.Base(filepath.Clean(dir))
		name = strings.TrimSuffix(name, ".fdbcat")
	}
	d.names = append(d.names, name)
	d.dirs = append(d.dirs, dir)
	return nil
}

// mutableFlags collects repeated -mutable flags of the form "name=dir"
// or "name=dir=seed.fdbcat" (initialise dir from a snapshot if absent).
type mutableFlags struct {
	names []string
	dirs  []string
	seeds []string
}

func (m *mutableFlags) String() string { return strings.Join(m.dirs, ",") }

func (m *mutableFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 3)
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return errors.New("-mutable needs name=dir or name=dir=seed.fdbcat")
	}
	seed := ""
	if len(parts) == 3 {
		seed = parts[2]
	}
	m.names = append(m.names, parts[0])
	m.dirs = append(m.dirs, parts[1])
	m.seeds = append(m.seeds, seed)
	return nil
}

// shardFlags collects repeated -shards flags; each value is one shard
// group's replica set as a comma-separated list of worker base URLs.
type shardFlags struct {
	groups [][]string
}

func (s *shardFlags) String() string {
	parts := make([]string, len(s.groups))
	for i, g := range s.groups {
		parts[i] = strings.Join(g, ",")
	}
	return strings.Join(parts, " ")
}

func (s *shardFlags) Set(v string) error {
	var group []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		group = append(group, u)
	}
	if len(group) == 0 {
		return errors.New("-shards needs at least one replica URL")
	}
	s.groups = append(s.groups, group)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdbserver: ")
	var data dataFlags
	var mutable mutableFlags
	var shards shardFlags
	flag.Var(&data, "data", "data directory of *.csv relations or a .fdbcat catalogue snapshot, optionally name=path (repeatable)")
	flag.Var(&mutable, "mutable", "writable catalogue directory as name=dir, or name=dir=seed.fdbcat to initialise from a snapshot (repeatable)")
	flag.Var(&shards, "shards", "one shard group's replica base URLs, comma-separated (repeatable; coordinator mode)")
	coordinator := flag.Bool("coordinator", false, "shard the -data catalogue across the -shards groups and serve scatter-gather queries")
	replicas := flag.Int("replicas", 0, "expected replicas per shard group (0 = any; validated against each -shards value)")
	shardDir := flag.String("sharddir", "", "enable POST /shard/install and persist received shard snapshots in this directory (worker mode)")
	compactWAL := flag.Int64("compactwal", 64<<20, "auto-compact a mutable database once its WAL exceeds this many bytes (0 = manual /compact only)")
	listen := flag.String("listen", ":8334", "listen address")
	workers := flag.Int("workers", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 256, "plan cache entries per database")
	maxRows := flag.Int("maxrows", 0, "max rows returned per query (0 = unlimited)")
	useMmap := flag.Bool("mmap", false, "memory-map catalogue snapshots instead of reading them (zero-copy boot)")
	drainTimeout := flag.Duration("draintimeout", 30*time.Second, "max time to wait for in-flight queries on shutdown")
	flag.Parse()

	if len(data.dirs) == 0 && len(mutable.dirs) == 0 && *shardDir == "" {
		log.Fatal("at least one -data or -mutable database is required (or -sharddir for a shard worker)")
	}
	if *coordinator {
		if len(shards.groups) == 0 {
			log.Fatal("-coordinator requires at least one -shards group")
		}
		if len(data.dirs) != 1 || len(mutable.dirs) != 0 {
			log.Fatal("-coordinator requires exactly one -data catalogue and no -mutable databases")
		}
	}
	if *replicas > 0 {
		for i, g := range shards.groups {
			if len(g) != *replicas {
				log.Fatalf("shard group %d has %d replicas, want %d", i, len(g), *replicas)
			}
		}
	}
	dbs := make(map[string]fdb.Database, len(data.dirs))
	snapshots := make(map[string]string, len(data.dirs))
	for i, dir := range data.dirs {
		name := data.names[i]
		if _, dup := dbs[name]; dup {
			log.Fatalf("duplicate database name %q", name)
		}
		db, snapPath, how, err := loadData(dir, *useMmap)
		if err != nil {
			log.Fatal(err)
		}
		rels := make([]string, 0, len(db))
		for n, r := range db {
			rels = append(rels, fmt.Sprintf("%s[%d]", n, r.Cardinality()))
		}
		log.Printf("database %q (%s): %s", name, how, strings.Join(rels, " "))
		dbs[name] = db
		snapshots[name] = snapPath
	}
	mutables := make(map[string]*fdb.MutableCatalog, len(mutable.dirs))
	for i, dir := range mutable.dirs {
		name := mutable.names[i]
		if _, dup := dbs[name]; dup {
			log.Fatalf("duplicate database name %q", name)
		}
		if _, dup := mutables[name]; dup {
			log.Fatalf("duplicate database name %q", name)
		}
		mut, err := openMutable(dir, name, mutable.seeds[i])
		if err != nil {
			log.Fatal(err)
		}
		defer mut.Close()
		if *compactWAL > 0 {
			if err := mut.StartAutoCompact(fdb.AutoCompactConfig{MaxWALBytes: *compactWAL}); err != nil {
				log.Fatal(err)
			}
		}
		st := mut.Stats()
		log.Printf("database %q (mutable, %s): generation %d, wal epoch %d (%d bytes)",
			name, dir, st.Generation, st.WALEpoch, st.WALBytes)
		mutables[name] = mut
	}

	defaultDB := ""
	if len(data.names) > 0 {
		defaultDB = data.names[0]
	} else if len(mutable.names) > 0 {
		defaultDB = mutable.names[0]
	}
	srv, err := server.New(server.Config{
		Databases: dbs,
		DefaultDB: defaultDB,
		Workers:   *workers,
		CacheSize: *cacheSize,
		MaxRows:   *maxRows,
		Snapshots: snapshots,
		Mutables:  mutables,
		ShardDir:  *shardDir,
	})
	if err != nil {
		log.Fatal(err)
	}

	var handler http.Handler = srv
	var co *cluster.Coordinator
	if *coordinator {
		cat, err := catalog.Build(defaultDB, dbs[defaultDB])
		if err != nil {
			log.Fatalf("building catalogue for sharding: %v", err)
		}
		man, err := cluster.Ship(context.Background(), nil, shards.groups, cat)
		if err != nil {
			log.Fatalf("shipping shards: %v", err)
		}
		co, err = cluster.New(cluster.Config{
			Groups:    shards.groups,
			Manifest:  man,
			Local:     srv,
			MaxRows:   *maxRows,
			CacheSize: *cacheSize,
		})
		if err != nil {
			log.Fatal(err)
		}
		handler = co
		for i, g := range shards.groups {
			log.Printf("shard %d/%d: %s", i+1, len(shards.groups), strings.Join(g, " "))
		}
		log.Printf("coordinator: catalogue %q shipped to %d shard groups", defaultDB, len(shards.groups))
	}

	httpSrv := &http.Server{Addr: *listen, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	log.Printf("serving on %s (default database %q)", *listen, defaultDB)

	select {
	case err := <-serveErr:
		// The listener failed before any shutdown was requested.
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Shutdown ordering: flip the server into draining first — /healthz
	// turns 503 so load balancers stop routing, and new queries on
	// kept-alive connections get a clean refusal — then close the
	// listener and wait for the HTTP layer, then drain the query layer:
	// the process must not exit while a cursor is still streaming or a
	// snapshot rename is pending.
	log.Print("shutting down…")
	if co != nil {
		co.StartDrain()
	}
	srv.StartDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if co != nil {
		if err := co.Drain(shCtx); err != nil {
			log.Printf("coordinator drain: %v", err)
		}
	}
	if err := srv.Drain(shCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Print("drained; exiting")
}

// openMutable opens one -mutable argument: an existing catalogue
// directory, or — when a seed snapshot is given and the directory holds
// no catalogue yet — a fresh directory initialised from the seed.
func openMutable(dir, name, seed string) (*fdb.MutableCatalog, error) {
	if seed != "" {
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); os.IsNotExist(err) {
			cat, err := fdb.LoadCatalogFile(seed, false)
			if err != nil {
				return nil, err
			}
			db := cat.DB
			cat.Close()
			return fdb.CreateMutable(dir, name, db)
		}
	}
	return fdb.OpenMutable(dir)
}

// loadData loads one -data argument: a snapshot file, a directory with a
// snapshot, or a directory of CSVs. It returns the database, the path
// /snapshot should persist to, and a description of how the data was
// loaded.
func loadData(path string, useMmap bool) (fdb.Database, string, string, error) {
	if strings.HasSuffix(path, ".fdbcat") {
		cat, err := fdb.LoadCatalogFile(path, useMmap)
		if err != nil {
			return nil, "", "", err
		}
		return cat.DB, path, loadKind(useMmap), nil
	}
	snapPath := filepath.Join(path, snapshotBase)
	if _, err := os.Stat(snapPath); err == nil {
		cat, err := fdb.LoadCatalogFile(snapPath, useMmap)
		if err != nil {
			return nil, "", "", err
		}
		return cat.DB, snapPath, loadKind(useMmap), nil
	}
	db, err := loadDir(path)
	if err != nil {
		return nil, "", "", err
	}
	return db, snapPath, "csv", nil
}

func loadKind(useMmap bool) string {
	if useMmap {
		return "snapshot, mmap"
	}
	return "snapshot"
}

// loadDir reads every *.csv in dir as a relation named after the file.
func loadDir(dir string) (fdb.Database, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no *.csv files in %s", dir)
	}
	db := fdb.Database{}
	for _, path := range matches {
		name := strings.TrimSuffix(filepath.Base(path), ".csv")
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		rel, err := fdb.ReadCSV(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		db[name] = rel
	}
	return db, nil
}
