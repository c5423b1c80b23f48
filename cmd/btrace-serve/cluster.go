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
)

// gateEvery is how often gateLoop re-evaluates a pipeline's overload
// gate: the cluster's against the worst store pressure across the shard
// fleet, a single store's against its own (which its handler also
// evaluates once per batch).
const gateEvery = 250 * time.Millisecond

// gateLoop calls eval every gateEvery on a goroutine of its own until
// the returned stop is called; stop returns once that goroutine has
// exited and is safe to call more than once. No traffic must not mean
// no evaluations: a tier that engaged has to be able to cool down while
// clients heed /readyz and stay away.
func gateLoop(eval func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(gateEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				eval()
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(quit)
		<-done
	})
}

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
	// Store is the per-shard store configuration template; each shard
	// opens it over its own directory.
	Store store.Config
}

// clusterPipeline owns the distributed ingest tier inside btrace-serve:
// N in-process replicated shards under one directory root, fronted by
// the consistent-hash distributor, plus the background gate evaluation.
type clusterPipeline struct {
	cfg clusterConfig
	d   *distributor.Distributor
	// stopGate ends the gate evaluations.
	stopGate func()

	// topo serializes operator topology changes (/ring POST): add, drain
	// and remove are rare and slow, so one at a time is plenty.
	topo sync.Mutex
}

// openShard opens one shard's store under the cluster root and wraps it
// in a LocalShard.
func (cfg clusterConfig) openShard(name string) (*distributor.LocalShard, error) {
	st, err := store.Open(filepath.Join(cfg.Dir, name), cfg.Store)
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
		Gate:        cfg.Ingest.gateConfig(),
		Publish:     cfg.Ingest.Hub.Publish,
	})
	if err != nil {
		for _, prev := range shards {
			prev.Close()
		}
		return nil, err
	}
	return &clusterPipeline{cfg: cfg, d: d, stopGate: gateLoop(d.EvaluateGate)}, nil
}

// Close stops the gate loop and closes every shard (in-flight
// deliveries finish, then its store closes). Safe to call more than
// once.
func (p *clusterPipeline) Close() error {
	p.stopGate()
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
