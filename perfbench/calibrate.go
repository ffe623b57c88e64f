package main

import (
	"encoding/json"
	"errors"
	"sort"
	"sync"
	"time"
)

// The shared host this benchmark runs on changes speed from minute to
// minute: other tenants' load takes vCPU time (steal) and shares caches
// and memory bandwidth, and the same code then runs up to half again as
// slowly, in wall time and in CPU time alike. Every timing metric moves
// with it. To keep two runs of the same code comparable, the measured
// phase pauses its load before, between and after its time slices and
// times a fixed reference computation, the calibration kernel below, as
// it does before each set-up. The timing metrics are then reported as
// they would read at the reference speed: wall times divided by the
// median calibration's wall-time slowdown, CPU times by its CPU-time
// slowdown.
//
// The kernel belongs to the benchmark alone: it calls nothing in the
// repository, so a change to the serving code moves the metrics and
// leaves the kernel's time as it was. It mixes the kinds of work the
// serving path does: walking adjacency lists, sorting, map inserts, and
// reflection-driven JSON decoding and encoding with the allocation and
// garbage collection those bring.

// calRefWall and calRefCPU are the kernel's wall time and process CPU
// time (one calibration: calUnits units on each of clientCount
// goroutines) at the reference speed: the medians measured on a quiet
// 2-vCPU Intel Xeon VM, Go 1.24.
const (
	calRefWall = 22 * time.Millisecond
	calRefCPU  = 41 * time.Millisecond
)

// calUnits is the number of kernel units one goroutine runs per
// calibration.
const calUnits = 24

// calVertices and calDegree size the kernel's fixed graph.
const (
	calVertices = 1024
	calDegree   = 6
)

// calDoc is the kernel's JSON document, shaped like a /plan answer.
type calDoc struct {
	N      int       `json:"n"`
	Demand string    `json:"demand"`
	Cycles [][]int32 `json:"cycles"`
	Loads  []float64 `json:"loads"`
}

// calKernel is the kernel's fixed input, built once.
type calKernel struct {
	adj  [][]int32
	keys []uint64
	doc  []byte
}

// mix is a fixed 64-bit mixing function (splitmix64's finaliser), the
// kernel's only source of variety: it draws nothing at random.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newCalKernel() *calKernel {
	k := &calKernel{adj: make([][]int32, calVertices), keys: make([]uint64, 2048)}
	for v := range k.adj {
		for j := 0; j < calDegree; j++ {
			k.adj[v] = append(k.adj[v], int32(mix(uint64(v*calDegree+j))%calVertices))
		}
	}
	for i := range k.keys {
		k.keys[i] = mix(uint64(i) + 1<<40)
	}
	doc := calDoc{N: 101, Demand: "alltoall"}
	for c := 0; c < 64; c++ {
		cyc := make([]int32, 4+c%5)
		for i := range cyc {
			cyc[i] = int32(mix(uint64(c*8+i)) % 101)
		}
		doc.Cycles = append(doc.Cycles, cyc)
		doc.Loads = append(doc.Loads, float64(mix(uint64(c))%1000)/7)
	}
	k.doc, _ = json.Marshal(doc) // a plain struct of numbers and strings cannot fail
	return k
}

// unit runs one unit of kernel work and returns a checksum of it, which
// is the same on every call.
func (k *calKernel) unit() uint64 {
	sum := uint64(0)
	// Breadth-first search from four sources, with fresh buffers.
	for src := 0; src < 4; src++ {
		dist := make([]int32, calVertices)
		for i := range dist {
			dist[i] = -1
		}
		queue := []int32{int32(src)}
		dist[src] = 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range k.adj[v] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for _, d := range dist {
			sum += uint64(d + 1)
		}
	}
	// Sorting and map inserts.
	keys := append([]uint64(nil), k.keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	seen := make(map[uint64]int, len(keys)/2)
	for i, key := range keys {
		seen[key>>20] += i
	}
	sum += uint64(len(seen)) + keys[len(keys)/2]>>40
	// A JSON round trip.
	var doc calDoc
	if err := json.Unmarshal(k.doc, &doc); err != nil {
		return 0
	}
	out, err := json.Marshal(doc)
	if err != nil {
		return 0
	}
	return sum + uint64(len(out)) + uint64(len(doc.Cycles))
}

// calibration is one timing of the kernel.
type calibration struct {
	wall, cpu time.Duration
}

// calibrate runs calUnits units of the kernel on each of clientCount
// goroutines at once, while nothing else in the process is busy, and
// returns its wall and CPU time. It returns false when a unit's checksum
// differs from the first unit's.
func (k *calKernel) calibrate() (calibration, bool) {
	want := k.unit()
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok := true
	cpu0, t0 := rusageCPU(), now()
	for g := 0; g < clientCount; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calUnits; i++ {
				if k.unit() != want {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return calibration{wall: now().Sub(t0), cpu: rusageCPU() - cpu0}, ok
}

// calibrations runs n calibrations.
func (k *calKernel) calibrations(n int) ([]calibration, error) {
	out := make([]calibration, 0, n)
	for i := 0; i < n; i++ {
		c, ok := k.calibrate()
		if !ok {
			return nil, errors.New("calibration kernel: a unit's checksum changed")
		}
		out = append(out, c)
	}
	return out, nil
}

// speed is the host's slowdown against the reference speed: above 1 the
// host ran slower than at reference speed.
type speed struct {
	wall, cpu float64
}

// medianSpeed is the slowdown the median calibration of cals shows,
// taken separately for wall and CPU time.
func medianSpeed(cals []calibration) speed {
	wall := make([]float64, len(cals))
	cpu := make([]float64, len(cals))
	for i, c := range cals {
		wall[i], cpu[i] = c.wall.Seconds(), c.cpu.Seconds()
	}
	return speed{wall: quantile(wall, 0.5) / calRefWall.Seconds(), cpu: quantile(cpu, 0.5) / calRefCPU.Seconds()}
}
