package main

import "math/rand"

// opKind is one request type of the traffic mix.
type opKind int

const (
	opSearch opKind = iota
	opTopK
	opBatch
	opIngest
	opDelete
	numOps
)

var opNames = [numOps]string{"search", "topk", "batch", "ingest", "delete"}

func (k opKind) String() string { return opNames[k] }

// read reports whether the operation is a query (search, topk, batch)
// rather than a write (ingest, delete).
func (k opKind) read() bool { return k <= opBatch }

const (
	batchQueries = 8 // queries per /v1/batch request
	ingestGraphs = 4 // pool graphs per mixed-durable ingest request
	zipfS        = 1.2
)

// op is one scheduled operation. It names its inputs by position (query
// positions, pool positions); a delete removes the oldest graph its own
// client ingested and has not yet deleted.
type op struct {
	kind    opKind
	queries []int
	graphs  []int
}

// mix is the traffic mix in percent per opKind; it sums to 100.
type mix [numOps]int

// schedule generates one client's operation sequence. It is a function
// of (seed, client, clients, mix, zipf, corpus sizes) only — no reply
// and no clock feeds back into it — so two runs with one seed issue the
// same prefix of requests per client.
type schedule struct {
	rng     *rand.Rand
	mix     mix
	zipf    *rand.Zipf // nil: queries uniform
	popular []int      // popularity rank → query position
	nq      int
	client  int
	clients int
	npool   int
	taken   int // pool graphs this client has scheduled for ingest
	live    int // scheduled ingests minus scheduled deletes
}

func newSchedule(seed int64, client, clients int, m mix, zipf bool, c *corpus) *schedule {
	s := &schedule{
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		mix:     m,
		popular: c.popular,
		nq:      len(c.queries),
		client:  client,
		clients: clients,
		npool:   len(c.pool),
	}
	if zipf {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(s.nq-1))
	}
	return s
}

func (s *schedule) query() int {
	if s.zipf != nil {
		return s.popular[s.zipf.Uint64()]
	}
	return s.rng.Intn(s.nq)
}

// next returns the client's next operation.
func (s *schedule) next() op {
	r, kind := s.rng.Intn(100), opSearch
	for k, share := range s.mix {
		if r < share {
			kind = opKind(k)
			break
		}
		r -= share
	}
	if kind == opDelete && s.live == 0 {
		kind = opIngest // nothing of its own to delete yet
	}
	o := op{kind: kind}
	switch kind {
	case opSearch, opTopK:
		o.queries = []int{s.query()}
	case opBatch:
		o.queries = make([]int, batchQueries)
		for i := range o.queries {
			o.queries[i] = s.query()
		}
	case opIngest:
		// Clients take disjoint strides of the pool; a client that runs
		// out starts over (a re-ingested graph gets a fresh ID).
		o.graphs = make([]int, ingestGraphs)
		for i := range o.graphs {
			o.graphs[i] = (s.client + s.taken*s.clients) % s.npool
			s.taken++
		}
		s.live += ingestGraphs
	case opDelete:
		s.live--
	}
	return o
}
