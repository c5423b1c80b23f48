package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"btrace/internal/distributor"
	"btrace/internal/ingest"
	"btrace/internal/store"
	"btrace/internal/store/backend"
)

// gateEvery is how often the cluster's shared overload gate is
// re-evaluated against the worst store pressure across the shard fleet,
// and how often the single-store drain evaluates its gate while no
// batch arrives (with traffic it evaluates once per batch).
const gateEvery = 250 * time.Millisecond

// shardNamePattern constrains operator-supplied shard names: they become
// directory names under the cluster root.
var shardNamePattern = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// clusterConfig shapes a clusterPipeline.
type clusterConfig struct {
	// Dir is the cluster root; each shard stores under Dir/shard-NN.
	Dir string
	// Shards is the initial shard count (-shards).
	Shards int
	// Replication is the replica count per stream key (-replication).
	Replication int
	// Ingest configures the distributor's admission: the gate, the
	// tenant quotas and the live hub, as on a single store.
	Ingest ingestConfig
	// Store is the per-shard store configuration template; Backend is
	// ignored (each shard gets its own).
	Store store.Config
	// ObjectBackend gives every shard an in-process volatile backend
	// (-backend object).
	ObjectBackend bool
}

// clusterPipeline owns the distributed ingest tier inside btrace-serve:
// N in-process replicated shards under one directory root, fronted by
// the consistent-hash distributor, plus the background gate evaluation
// the single-store path gets from its drain loop.
type clusterPipeline struct {
	cfg clusterConfig
	d   *distributor.Distributor

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// topo serializes operator topology changes (/ring POST): add, drain
	// and remove are rare and slow, so one at a time is plenty.
	topo sync.Mutex
}

// openShard opens one shard's store under the cluster root and wraps it
// in a LocalShard.
func (cfg clusterConfig) openShard(name string) (*distributor.LocalShard, error) {
	scfg := cfg.Store
	if cfg.ObjectBackend {
		scfg.Backend = backend.NewObject()
	}
	st, err := store.Open(filepath.Join(cfg.Dir, name), scfg)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", name, err)
	}
	sh, err := distributor.NewLocalShard(distributor.LocalConfig{Name: name, Store: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	return sh, nil
}

// newClusterPipeline opens the shard stores and starts the gate loop.
func newClusterPipeline(cfg clusterConfig) (*clusterPipeline, error) {
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("cluster needs at least 2 shards, got %d", cfg.Shards)
	}
	if cfg.Replication < 1 || cfg.Replication > cfg.Shards {
		return nil, fmt.Errorf("replication %d out of [1, %d shards]", cfg.Replication, cfg.Shards)
	}
	gcfg, err := cfg.Ingest.gateConfig()
	if err != nil {
		return nil, err
	}
	shards := make([]distributor.Shard, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sh, err := cfg.openShard(fmt.Sprintf("shard-%02d", i))
		if err != nil {
			for _, prev := range shards {
				prev.Close()
			}
			return nil, err
		}
		shards = append(shards, sh)
	}
	d, err := distributor.New(shards, distributor.Config{
		Replication: cfg.Replication,
		Overrides:   cfg.Ingest.Overrides,
		Gate:        gcfg,
		Publish:     cfg.Ingest.Hub.Publish,
	})
	if err != nil {
		for _, prev := range shards {
			prev.Close()
		}
		return nil, err
	}
	p := &clusterPipeline{cfg: cfg, d: d, stop: make(chan struct{}), done: make(chan struct{})}
	go p.gateLoop()
	return p, nil
}

// gateLoop periodically folds the fleet's store pressure into the shared
// gate so the shedding tiers engage and release like the single-store
// path's.
func (p *clusterPipeline) gateLoop() {
	defer close(p.done)
	t := time.NewTicker(gateEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.d.EvaluateGate()
		}
	}
}

// Close stops the gate loop and closes every shard (in-flight
// deliveries finish, then its store closes). Safe to call more than
// once.
func (p *clusterPipeline) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	return p.d.Close()
}

// addShard creates a fresh shard under the cluster root and joins it to
// the ring; the distributor copies the moved hash ranges onto it before
// returning.
func (p *clusterPipeline) addShard(name string) (distributor.DrainReport, error) {
	sh, err := p.cfg.openShard(name)
	if err != nil {
		return distributor.DrainReport{}, err
	}
	rep, err := p.d.AddShard(sh)
	if err != nil {
		sh.Close()
		return rep, err
	}
	return rep, nil
}

// drainShard re-places the shard's moved ranges onto the survivors,
// removes it from the ring, and closes it.
func (p *clusterPipeline) drainShard(name string) (distributor.DrainReport, error) {
	sh, rep, err := p.d.DrainShard(name)
	if sh != nil {
		sh.Close()
	}
	return rep, err
}

// removeShard is the crash path: drop the shard from the ring without
// moving anything, relying on its peers' replicas.
func (p *clusterPipeline) removeShard(name string) error {
	sh, err := p.d.RemoveShard(name)
	if err != nil {
		return err
	}
	return sh.Close()
}

// handleRing serves the cluster topology. GET returns the ring view —
// per-shard ownership, health, footprint — plus the distributor's
// counters and per-tenant attribution. POST mutates the topology:
//
//	POST /ring?action=add&shard=shard-07     join a fresh shard
//	POST /ring?action=drain&shard=shard-02   re-place moved ranges, then remove
//	POST /ring?action=remove&shard=shard-02  drop without draining (crash path)
func (s *server) handleRing(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		http.Error(w, "not running in cluster mode (start btrace-serve with -shards)", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		resp := struct {
			distributor.Info
			Stats   distributor.Stats             `json:"stats"`
			Tenants map[string]ingest.TenantStats `json:"tenants"`
			Tier    string                        `json:"overload_tier"`
		}{
			Info:    s.cluster.d.Info(),
			Stats:   s.cluster.d.Stats(),
			Tenants: s.cluster.d.TenantStats(),
			Tier:    s.cluster.d.GateTier().String(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case http.MethodPost:
		name := r.URL.Query().Get("shard")
		if !shardNamePattern.MatchString(name) {
			http.Error(w, "shard name must match "+shardNamePattern.String(), http.StatusBadRequest)
			return
		}
		s.cluster.topo.Lock()
		defer s.cluster.topo.Unlock()
		switch action := r.URL.Query().Get("action"); action {
		case "add":
			rep, err := s.cluster.addShard(name)
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"added": name, "report": rep})
		case "drain":
			rep, err := s.cluster.drainShard(name)
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"drained": name, "report": rep})
		case "remove":
			if err := s.cluster.removeShard(name); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"removed": name})
		default:
			http.Error(w, fmt.Sprintf("unknown action %q (add|drain|remove)", action), http.StatusBadRequest)
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}
