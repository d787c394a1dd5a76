package main

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The reference speed. A shared host runs the benchmark's VM faster or
// slower from minute to minute (other tenants, clock speed), by more than
// most changes to the code under test. So between its timed requests a
// round also times a fixed reference unit that shares no code with mira,
// and the end-to-end times are reported at the reference speed: scaled
// by the round's median unit time. The daemon is idle while a unit runs.

// refPerRound is about how many reference units a round measures, one
// before every few timed ops; refBase is the unit time that defines the
// reference speed.
const (
	refPerRound = 256
	refBase     = time.Millisecond
)

// refSpeed is a round's speed factor: refBase over the median reference
// unit time measured between its requests. A round on a host that runs
// the VM 20% slower reads 1.2 ms per unit and a factor 0.83. Multiplying
// a time by the factor (dividing a rate by it) gives its value at the
// reference speed.
func refSpeed(units []time.Duration) float64 {
	return float64(refBase) / float64(percentile(sortedCopy(units), 0.5))
}

// refState is the fixed input of the reference unit, built once: nothing
// in it depends on the code under test. It is only read; each lane has
// its own scratch.
type refState struct {
	ints  []int
	keys  []string
	table map[string]int
	bytes []byte
	// ring is one random cycle through 32 MiB: walking it misses the
	// caches the way the daemon's heap does.
	ring []int32
	// lanes run the unit at once, one per vCPU of the reference machine:
	// the daemon's work (parallel compilation and modelling, the
	// collector, two sweep workers, the client and the daemon handing a
	// request back and forth) spans both.
	lanes [2]refLane
}

type refLane struct {
	buf  []int
	pos  int32
	sink int
}

// refSteps is how many ring links one lane follows per unit.
const refSteps = 2000

var refOnce = sync.OnceValue(newRefState)

func newRefState() *refState {
	rng := rand.New(rand.NewSource(1))
	st := &refState{ints: make([]int, 4096), table: map[string]int{}, bytes: make([]byte, 16<<10), ring: make([]int32, 8<<20)}
	for i := range st.ints {
		st.ints[i] = rng.Int()
	}
	for i := 0; i < 4096; i++ {
		k := "key" + strconv.Itoa(rng.Intn(1<<20))
		st.keys = append(st.keys, k)
		st.table[k] = i
	}
	rng.Read(st.bytes)
	// Sattolo's shuffle: a single cycle through every slot.
	for i := range st.ring {
		st.ring[i] = int32(i)
	}
	for i := len(st.ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		st.ring[i], st.ring[j] = st.ring[j], st.ring[i]
	}
	for i := range st.lanes {
		st.lanes[i] = refLane{buf: make([]int, len(st.ints)), pos: int32(i * len(st.ring) / len(st.lanes))}
	}
	return st
}

// unit is one lane's fixed piece of work. It allocates nothing: sorting,
// map lookups by string, hashing and a walk of dependent loads through
// memory, the kinds of work the daemon's compiler, encoders and
// collector do.
func (l *refLane) unit(st *refState) {
	copy(l.buf, st.ints)
	slices.Sort(l.buf)
	sum := l.buf[len(l.buf)/2] & 0xff
	for _, k := range st.keys {
		sum += st.table[k]
	}
	h := fnv.New64a()
	h.Write(st.bytes)
	p := l.pos
	for i := 0; i < refSteps; i++ {
		p = st.ring[p]
	}
	l.pos = p
	l.sink += sum + int(h.Sum64()&0xff) + int(p&1)
}

// timeRef runs one unit on both lanes at once and returns the time until
// both are done. The second lane's goroutine is running before the clock
// starts, so the time is the VM's speed with both vCPUs busy and not how
// long an idle vCPU takes to wake, which varies on its own.
func (st *refState) timeRef() time.Duration {
	var running, start atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		running.Store(true)
		for !start.Load() {
			runtime.Gosched()
		}
		st.lanes[1].unit(st)
	}()
	for !running.Load() {
		runtime.Gosched()
	}
	t0 := time.Now()
	start.Store(true)
	st.lanes[0].unit(st)
	wg.Wait()
	return time.Since(t0)
}
