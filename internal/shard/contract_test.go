package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/core"
	"icrowd/internal/experiments"
	"icrowd/internal/platform"
	"icrowd/internal/ppr"
	"icrowd/internal/qualify"
	"icrowd/internal/sim"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// projectRun is what one project's crowd left behind on a deployment.
type projectRun struct {
	results map[int]string
	// submits counts the submit events per task, summed over every
	// shard's logs.
	submits map[int]int
	// shards names the shards (by index) whose logs hold the project's
	// events.
	shards []int
}

// stats summarizes a run: total submits, mean and max answers per task
// over the dataset, and the accuracy of the results against the truth.
func (r projectRun) stats(ds *task.Dataset) (total int, mean float64, max int, accuracy float64) {
	for _, n := range r.submits {
		total += n
		if n > max {
			max = n
		}
	}
	correct := 0
	for i := range ds.Tasks {
		if r.results[i] == ds.Tasks[i].Truth.String() {
			correct++
		}
	}
	return total, float64(total) / float64(ds.Len()), max, float64(correct) / float64(ds.Len())
}

// runCrowd drives the worker pool through one project, one request at a
// time: each pass walks the pool in order, and each worker takes one task
// and answers it from its latent profile with an RNG seeded from the
// project ID. It stops once a whole pass assigns nothing or after passes
// passes (0 for no limit), and returns the project's results.
func runCrowd(c platform.ClientAPI, id string, ds *task.Dataset, pool []sim.Profile, passes int) (map[int]string, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(hash64("answers/"+id) & math.MaxInt64)))
	for pass, assigned := 0, true; assigned && (passes == 0 || pass < passes); pass++ {
		assigned = false
		for i := range pool {
			res, err := c.Assign(ctx, pool[i].ID)
			if err != nil {
				return nil, fmt.Errorf("assign %s: %w", pool[i].ID, err)
			}
			if !res.Assigned {
				continue
			}
			assigned = true
			ans := sim.Answer(&pool[i], &ds.Tasks[res.TaskID], rng)
			if err := c.Submit(ctx, pool[i].ID, res.TaskID, ans); err != nil {
				return nil, fmt.Errorf("submit %s: %w", pool[i].ID, err)
			}
		}
	}
	return c.Results(ctx)
}

// deploy starts n shards (behind a router when route is set), runs the
// crowd through each project (projects run side by side, each one's crowd
// sequential), stops the fleet and reads the logs.
func deploy(t *testing.T, n int, route bool, projects func(*Router) []string,
	ds *task.Dataset, pool []sim.Profile, passes int, factory platform.StrategyFactory) map[string]*projectRun {
	t.Helper()
	dir := t.TempDir()
	shards := make([]*shardProc, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = startShard(t, "", filepath.Join(dir, fmt.Sprintf("shard%d", i)), ds, factory)
		urls[i] = shards[i].url
	}
	base := urls[0]
	var rt *Router
	if route {
		var err error
		rt, err = New(Config{Shards: urls, ProbeInterval: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(rt.Handler())
		defer front.Close()
		base = front.URL
	}
	client := &platform.Client{BaseURL: base}
	runs := map[string]*projectRun{}
	var wg sync.WaitGroup
	for _, id := range projects(rt) {
		var c platform.ClientAPI = client
		if id != store.DefaultProject {
			pc := client.Project(id)
			if _, err := pc.Create(context.Background()); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
			c = pc
		}
		run := &projectRun{submits: map[int]int{}}
		runs[id] = run
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var err error
			if run.results, err = runCrowd(c, id, ds, pool, passes); err != nil {
				t.Errorf("%d shards, project %s: %v", n, id, err)
			}
		}(id)
	}
	wg.Wait()
	for i, p := range shards {
		p.kill(t)
		for id, events := range p.projectEvents(t) {
			run := runs[id]
			if run == nil || len(events) == 0 {
				continue
			}
			run.shards = append(run.shards, i)
			for _, ev := range events {
				if ev.Kind == store.EventSubmit {
					run.submits[ev.Task]++
				}
			}
		}
	}
	for id, run := range runs {
		if route {
			for _, i := range run.shards {
				if urls[i] != rt.ring.Get(id) {
					t.Errorf("%d shards: project %s has events under shard %d, not only its owner", n, id, i)
				}
			}
		}
	}
	return runs
}

// TestShardedProjectMatchesSingleNode is the per-task contract under
// sharding: a project run through a router over 1, 2 or 4 shards collects
// exactly the answers a lone server collects — the same submits per task,
// all in its owner's logs — and returns the lone server's /results.
func TestShardedProjectMatchesSingleNode(t *testing.T) {
	ds, pool, err := experiments.LoadDataset(experiments.DatasetItemCompare, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bc := core.DefaultBasisConfig()
	bc.Seed = 1
	basis, err := core.BuildBasis(ds, bc)
	if err != nil {
		t.Fatal(err)
	}
	// The icrowd crowd stops after 30 passes: a whole ItemCompare job takes
	// minutes under the race detector, and 30 passes already take every
	// worker through qualification and adaptive assignment.
	for _, leg := range []struct {
		strategy string
		passes   int
	}{{"randommv", 0}, {"icrowd", 30}} {
		strategy := leg.strategy
		t.Run(strategy, func(t *testing.T) {
			if strategy == "icrowd" && testing.Short() {
				t.Skip("icrowd leg skipped with -short")
			}
			factory := contractFactory(strategy, ds, basis)
			// The lone server's runs, by project, computed on first use.
			lone := map[string]*projectRun{}
			for _, n := range []int{1, 2, 4} {
				fleet := deploy(t, n, true, contractProjects, ds, pool, leg.passes, factory)
				var ids, missing []string
				for id := range fleet {
					ids = append(ids, id)
					if lone[id] == nil {
						missing = append(missing, id)
					}
				}
				sort.Strings(ids)
				if len(missing) > 0 {
					for id, run := range deploy(t, 1, false, func(*Router) []string { return missing }, ds, pool, leg.passes, factory) {
						lone[id] = run
					}
				}
				for _, id := range ids {
					got, want := fleet[id], lone[id]
					total, mean, max, acc := got.stats(ds)
					t.Logf("%s %d shards, project %-7s submits %4d, answers/task mean %.3f max %d, accuracy %.4f",
						strategy, n, id, total, mean, max, acc)
					if !reflect.DeepEqual(got.submits, want.submits) {
						differ := 0
						for i := range ds.Tasks {
							if got.submits[i] != want.submits[i] {
								differ++
							}
						}
						wt, wm, wx, _ := want.stats(ds)
						t.Errorf("%d shards, project %s: %d tasks got a different number of answers; %d submits (mean %.3f, max %d per task), lone server %d (mean %.3f, max %d)",
							n, id, differ, total, mean, max, wt, wm, wx)
					}
					if !reflect.DeepEqual(got.results, want.results) {
						t.Errorf("%d shards, project %s: router /results differ from the lone server's", n, id)
					}
				}
			}
		})
	}
}

// contractFactory builds each project's strategy the way icrowd-server
// does, seeded from the project ID so every deployment builds the same one.
func contractFactory(strategy string, ds *task.Dataset, basis *ppr.Basis) platform.StrategyFactory {
	return func(id string) (core.Strategy, error) {
		seed := int64(hash64(id) & math.MaxInt64)
		if strategy == "icrowd" {
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			return core.New(ds, basis, cfg)
		}
		qual, err := qualify.Select(qualify.InfQF, basis, 10, seed)
		if err != nil {
			return nil, err
		}
		return baseline.NewRandomMV(ds, 3, qual, seed)
	}
}

// contractProjects picks the default project plus the first named project
// owned by a shard other than the default project's owner (any named
// project on a one-shard fleet), so more than one shard owns a project
// whenever the fleet has more than one shard.
func contractProjects(rt *Router) []string {
	def := rt.ring.Get(store.DefaultProject)
	for _, id := range projectIDs(100) {
		if rt.ring.Len() == 1 || rt.ring.Get(id) != def {
			return []string{store.DefaultProject, id}
		}
	}
	panic("no project ID hashes off the default project's owner")
}
