package gsim

// A model-based check of the in-memory store. Seeded random sequences of
// Store, StoreAll, Delete, Update and CommitAll drive three databases —
// one, three and seven shards — in lockstep beside a map model of the live
// set. Every few steps the databases must agree with each other on IDs,
// length and every search form, and with the model on what the plain and
// the prefiltered scans keep. Checkpoint, crash and reopen are not part of
// the op set.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/db"
	"gsim/internal/index"
	"gsim/internal/method"
)

// modelGraph builds the graph buildRandomGraph draws from seed into d:
// the same graph, label for label, whatever d's dictionaries number.
func modelGraph(d *Database, seed int64) *GraphBuilder {
	return buildRandomGraph(d, rand.New(rand.NewSource(seed)), fmt.Sprintf("g%d", seed))
}

// modelRun is one seeded sequence: the databases under test, the epoch
// each last reported, and the model.
type modelRun struct {
	t      *testing.T
	rng    *rand.Rand
	dbs    []*Database
	epochs []uint64
	model  map[int]int64 // live graph ID → the seed modelGraph builds it from
	live   []int         // the model's IDs, ascending

	kept, pruned int // model matches, and those the prefilter drops
	mixed        int // shard views searched with both posting lists and stale slots
}

// mutate applies one op to every database through do, which returns the
// IDs it assigned or touched, and checks the databases agree on them and
// that every epoch moved forward.
func (r *modelRun) mutate(op string, do func(d *Database) []int) []int {
	r.t.Helper()
	var ids []int
	for i, d := range r.dbs {
		got := do(d)
		if i == 0 {
			ids = got
		} else if !reflect.DeepEqual(got, ids) {
			r.t.Fatalf("%s: %d shards returned ids %v, %d shards %v", op, d.NumShards(), got, r.dbs[0].NumShards(), ids)
		}
		if e := d.Epoch(); e <= r.epochs[i] {
			r.t.Fatalf("%s: epoch %d → %d on %d shards, want strictly increasing", op, r.epochs[i], e, d.NumShards())
		} else {
			r.epochs[i] = e
		}
	}
	return ids
}

func (r *modelRun) put(id int, s int64) {
	if _, ok := r.model[id]; !ok {
		r.live = append(r.live, id)
		sort.Ints(r.live)
	}
	r.model[id] = s
}

func (r *modelRun) pick() int { return r.live[r.rng.Intn(len(r.live))] }

// step draws one op and applies it.
func (r *modelRun) step() {
	t := r.t
	switch op := r.rng.Intn(10); {
	case op < 3 || len(r.live) < 4:
		s := r.rng.Int63()
		ids := r.mutate("Store", func(d *Database) []int {
			id, err := modelGraph(d, s).Store()
			if err != nil {
				t.Fatal(err)
			}
			return []int{id}
		})
		r.put(ids[0], s)
	case op < 4:
		seeds := make([]int64, 1+r.rng.Intn(4))
		for k := range seeds {
			seeds[k] = r.rng.Int63()
		}
		ids := r.mutate("StoreAll", func(d *Database) []int {
			bs := make([]*GraphBuilder, len(seeds))
			for k, s := range seeds {
				bs[k] = modelGraph(d, s)
			}
			first, err := d.StoreAll(bs)
			if err != nil {
				t.Fatal(err)
			}
			return []int{first}
		})
		for k, s := range seeds {
			r.put(ids[0]+k, s)
		}
	case op < 6:
		id := r.pick()
		r.mutate("Delete", func(d *Database) []int {
			if err := d.Delete(id); err != nil {
				t.Fatal(err)
			}
			return nil
		})
		delete(r.model, id)
		k := sort.SearchInts(r.live, id)
		r.live = append(r.live[:k], r.live[k+1:]...)
	case op < 8:
		id, s := r.pick(), r.rng.Int63()
		r.mutate("Update", func(d *Database) []int {
			if err := modelGraph(d, s).Update(id); err != nil {
				t.Fatal(err)
			}
			return nil
		})
		r.put(id, s)
	default:
		// A mixed batch: inserts and updates, an ID possibly updated twice.
		seeds := make([]int64, 1+r.rng.Intn(5))
		targets := make([]*int, len(seeds))
		for k := range seeds {
			seeds[k] = r.rng.Int63()
			if r.rng.Intn(2) == 0 {
				id := r.pick()
				targets[k] = &id
			}
		}
		ids := r.mutate("CommitAll", func(d *Database) []int {
			muts := make([]BuilderMutation, len(seeds))
			for k, s := range seeds {
				muts[k] = BuilderMutation{Builder: modelGraph(d, s), UpdateID: targets[k]}
			}
			ids, err := d.CommitAll(muts)
			if err != nil {
				t.Fatal(err)
			}
			return ids
		})
		for k, s := range seeds {
			r.put(ids[k], s)
		}
	}
}

// outcome is what one search form returned, minus timings and epochs.
type outcome struct {
	Matches []Match
	Scanned int
	Pruned  int
}

func outcomeOf(res *Result) outcome {
	return outcome{res.Matches, res.Scanned, res.Stages.Pruned}
}

// queries builds the check's three queries into d: the stored graph drawn
// from seed, which some thresholds keep, and two random queries, some of
// whose labels no stored graph carries.
func queries(d *Database, seed int64) []*Query {
	rng := rand.New(rand.NewSource(seed))
	return []*Query{modelGraph(d, seed).Query(), buildRandomQuery(d, rng), buildRandomQuery(d, rng)}
}

// searches runs every search form of method m at tau on d for the
// queries drawn from seed.
func (r *modelRun) searches(d *Database, m Method, seed int64, tau int) map[string]outcome {
	t := r.t
	t.Helper()
	queries := queries(d, seed)
	out := make(map[string]outcome)
	for _, form := range []struct {
		name string
		opt  SearchOptions
	}{
		{"plain", SearchOptions{Method: m, Tau: tau}},
		{"prefilter", SearchOptions{Method: m, Tau: tau, Prefilter: true}},
	} {
		res, err := d.Search(queries[0], form.opt)
		if err != nil {
			t.Fatal(err)
		}
		out[form.name] = outcomeOf(res)
	}
	res, err := d.SearchTopK(queries[0], TopKOptions{Method: m, K: 5, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	out["topk"] = outcomeOf(res)
	batch, err := d.SearchBatch(context.Background(), queries, SearchOptions{Method: m, Tau: tau, Prefilter: tau%2 == 0})
	if err != nil {
		t.Fatal(err)
	}
	for k, res := range batch {
		out[fmt.Sprintf("batch[%d]", k)] = outcomeOf(res)
	}
	return out
}

// scoringMethods are the scorers the check runs: GreedySort estimates GED
// from an edit path, an upper bound, so the prefilter never drops what it
// keeps; seriation's estimate is no bound, so it can. GBDA's posterior is
// no bound either, and it is the one scan that reads only the candidates
// the shards' branch postings name, prefiltered or not.
var scoringMethods = []Method{GreedySort, Seriation, GBDA}

// check compares the databases with each other and with the model: every
// scoring method with all set, GBDA alone without it. The searches read
// whatever postings the writes left, lists and stale slots beside them.
func (r *modelRun) check(label string, all bool) {
	t := r.t
	t.Helper()
	for _, d := range r.dbs {
		if d.Len() != len(r.model) {
			t.Fatalf("%s: %d shards hold %d graphs, the model %d", label, d.NumShards(), d.Len(), len(r.model))
		}
		views, _ := d.store.Views(true)
		for _, v := range views {
			if stale := v.Post.Stale(len(v.Entries)); stale > 0 && stale < len(v.Entries) {
				r.mixed++ // lists and stale slots are both candidates
			}
		}
	}
	seed := r.model[r.pick()]
	methods := scoringMethods
	if !all {
		methods = []Method{GBDA} // the baselines' quadratic scorers, every other check
	}
	for _, m := range methods {
		for tau := 1; tau <= 4; tau++ {
			want := r.searches(r.dbs[0], m, seed, tau)
			for _, d := range r.dbs[1:] {
				if got := r.searches(d, m, seed, tau); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v tau %d: %d shards answered\n%+v\n%d shards\n%+v", label, m, tau, d.NumShards(), got, r.dbs[0].NumShards(), want)
				}
			}
			plain, pre := r.oracle(m, seed, tau)
			r.kept += len(plain)
			r.pruned += len(plain) - len(pre)
			if !reflect.DeepEqual(want["plain"].Matches, plain) {
				t.Fatalf("%s %v tau %d: plain search kept\n%+v\nthe model\n%+v", label, m, tau, want["plain"].Matches, plain)
			}
			if !reflect.DeepEqual(want["prefilter"].Matches, pre) {
				t.Fatalf("%s %v tau %d: prefiltered search kept\n%+v\nthe model\n%+v", label, m, tau, want["prefilter"].Matches, pre)
			}
		}
	}
}

// oracle scores every model graph against the first query drawn from
// seed with a scorer of method m prepared over the model's entries, in ID
// order (and, for GBDA, over the priors every database fitted alike), and
// drops from its matches the graphs index.PairPrunable prunes. Graphs and
// branch IDs are built afresh in the first database's dictionaries, not
// read from its store.
func (r *modelRun) oracle(m Method, seed int64, tau int) (plain, pre []Match) {
	t := r.t
	d := r.dbs[0]
	bdict := d.store.BranchDict()
	q := queries(d, seed)[0]
	qids := bdict.ResolveMultiset(q.branches)
	qsum := index.Summarize(q.g)
	entries := make([]*db.Entry, len(r.live))
	for k, id := range r.live {
		g, err := modelGraph(d, r.model[id]).graph()
		if err != nil {
			t.Fatal(err)
		}
		entries[k] = db.NewEntry(uint64(id), g, branch.Encode(bdict.ResolveMultiset(branch.MultisetOf(g))))
	}
	var sizes []int
	for _, e := range entries {
		if k := sort.SearchInts(sizes, e.Branches.Len()); k == len(sizes) || sizes[k] != e.Branches.Len() {
			sizes = append(sizes[:k], append([]int{e.Branches.Len()}, sizes[k:]...)...)
		}
	}
	info, _ := method.Lookup(method.ID(m))
	scorer := info.New()
	mdb := &method.DB{ActiveN: len(entries), Ordered: func() []*db.Entry { return entries },
		Sizes: func() []int { return sizes }, WS: d.ws, GBDPrior: d.gbdPrior, TauMax: d.tauMax}
	if err := scorer.Prepare(mdb, SearchOptions{Method: m, Tau: tau}.withDefaults().methodOptions()); err != nil {
		t.Fatal(err)
	}
	mq := &method.Query{G: q.g, Branches: qids}
	plain, pre = []Match{}, []Match{} // a search with no hits returns an empty, non-nil slice
	for _, e := range entries {
		keep, score, err := scorer.Score(mq, e)
		if err != nil {
			t.Fatal(err)
		}
		if !keep {
			continue
		}
		m := Match{Index: int(e.ID), Name: e.G.Name, Score: score}
		plain = append(plain, m)
		if !index.PairPrunable(qsum, qids, index.Summarize(e.G.Unpack()), e, tau) {
			pre = append(pre, m)
		}
	}
	return plain, pre
}

// TestModelOpSequences runs a few seeded op sequences through one, three
// and seven shards in lockstep, from a seed state the GBDA priors are
// fitted on once. The sequences are long enough for every database's
// shards to pass their postings rebuild threshold, and every other check
// searches while rebuilds may still be in flight.
func TestModelOpSequences(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := &modelRun{t: t, rng: rand.New(rand.NewSource(seed)), model: make(map[int]int64)}
		for _, n := range []int{1, 3, 7} {
			d := New(WithName("model"), WithShards(n))
			r.dbs = append(r.dbs, d)
			r.epochs = append(r.epochs, d.Epoch())
		}
		seeds := make([]int64, 24)
		for k := range seeds {
			seeds[k] = r.rng.Int63()
		}
		ids := r.mutate("StoreAll", func(d *Database) []int {
			bs := make([]*GraphBuilder, len(seeds))
			for k, s := range seeds {
				bs[k] = modelGraph(d, s)
			}
			first, err := d.StoreAll(bs)
			if err != nil {
				t.Fatal(err)
			}
			return []int{first}
		})
		for k, s := range seeds {
			r.put(ids[0]+k, s)
		}
		for i, d := range r.dbs {
			if err := d.BuildPriors(OfflineConfig{TauMax: 4, SamplePairs: 500, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			r.epochs[i] = d.Epoch()
		}
		for n := 0; n < 150; n++ {
			r.step()
			if n%6 == 5 {
				r.check(fmt.Sprintf("seed %d step %d", seed, n), n%12 == 5)
			}
		}
		if r.kept == 0 || r.pruned == 0 {
			t.Fatalf("seed %d: %d model matches, %d of them pruned: the sequence does not exercise both scans", seed, r.kept, r.pruned)
		}
		rebuilds := make([]uint64, len(r.dbs))
		for i, d := range r.dbs {
			for k := range d.StoreTelemetry().Shards {
				rebuilds[i] += d.StoreTelemetry().Shards[k].Rebuilds.Load()
			}
			if rebuilds[i] == 0 {
				t.Fatalf("seed %d: no shard of %d installed a postings rebuild", seed, d.NumShards())
			}
		}
		if r.mixed == 0 {
			t.Fatalf("seed %d: no search read posting lists beside stale slots", seed)
		}
		t.Logf("seed %d: %d graphs live, %d model matches, %d pruned; rebuilds %v, %d mixed views",
			seed, len(r.live), r.kept, r.pruned, rebuilds, r.mixed)
	}
}
