// Distributed: the networked sweep loop in one program. Three worker
// daemons come up on loopback listeners — each one exactly what
// `glacsim worker -listen ADDR` serves — and a RemoteRunner fans a
// campaign grid out across them: planning stays here, only cell execution
// crosses the HTTP wire, and every returned partial summary is verified
// against the plan fingerprint. One of the "workers" is a liar that
// answers for the wrong plan, so the demo also shows the retry/requeue
// loop doing its job. The final summary is byte-identical to running the
// whole grid in this process.
package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"

	"repro"
)

func main() {
	grid := repro.SweepGrid{
		Scenarios: []string{"as-deployed-2008", "dual-base"},
		Seeds:     repro.SeedRange(42, 3),
		Days:      7,
	}

	// Spin up two honest in-process workers.
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		go func() { _ = repro.ServeSweepWorker(l, 2) }()
		addrs = append(addrs, l.Addr().String())
		fmt.Printf("worker %d listening on %s\n", i, l.Addr())
	}

	// And one faulty one: it answers every shard with a summary from some
	// other plan. The runner must catch the fingerprint mismatch and
	// requeue its shards onto the honest workers.
	liar, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go func() {
		_ = http.Serve(liar, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"fingerprint":"0123456789abcdef","total_cells":1,"cells":[],"groups":[]}`)
		}))
	}()
	addrs = append(addrs, liar.Addr().String())
	fmt.Printf("faulty worker listening on %s (answers for the wrong plan)\n\n", liar.Addr())

	runner := &repro.SweepRemoteRunner{
		Workers: addrs,
		// Generous attempt cap: the liar retires after a few consecutive
		// failures, and no shard should run out of tries before then.
		Attempts: 10,
		Logf:     func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
	}
	distributed, err := repro.RunSweepOn(grid, runner)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ndistributed run: %d of %d cells across %d workers\n\n",
		len(distributed.Cells), distributed.TotalCells, len(addrs))
	fmt.Print(distributed)

	// Prove the network was free: a single-process run of the same grid
	// produces the same bytes in every encoding.
	single, err := repro.RunSweep(grid, 0)
	if err != nil {
		panic(err)
	}
	var dJSON, sJSON bytes.Buffer
	if err := distributed.WriteJSON(&dJSON); err != nil {
		panic(err)
	}
	if err := single.WriteJSON(&sJSON); err != nil {
		panic(err)
	}
	if distributed.String() != single.String() || !bytes.Equal(dJSON.Bytes(), sJSON.Bytes()) {
		panic("distributed output differs from the single-process run")
	}
	fmt.Println("\ndistributed output is byte-identical to the single-process run")
}
