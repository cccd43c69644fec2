package svc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"sdsm/internal/wire"
)

// RunPoolDaemon is the body of `sdsm-node -pool`: a long-lived node
// daemon that attaches a pool of the given slot count to a coordinator
// and executes the jobs dispatched to it until the connection closes or
// stop fires. Each job builds its machine fresh; the daemon outlives
// every job, and only its own death drops the attachment.
//
// The attach handshake is one FPoolHello frame with the slot count in
// Tag. After it, traffic is FJob in (spec with ID assigned) and
// FJobResult out, up to `slots` jobs in flight — the coordinator
// enforces the bound, the daemon just runs what arrives.
func RunPoolDaemon(network, addr string, slots int, stop <-chan struct{}) error {
	if slots < 1 {
		return fmt.Errorf("svc: pool daemon needs at least 1 slot, got %d", slots)
	}
	c, err := net.Dial(network, addr)
	if err != nil {
		return fmt.Errorf("svc: pool daemon dial: %w", err)
	}
	defer c.Close()
	if err := wire.WriteFrame(c, &wire.Frame{Kind: wire.FPoolHello, Tag: int32(slots)}); err != nil {
		return fmt.Errorf("svc: pool daemon hello: %w", err)
	}
	if stop != nil {
		go func() {
			<-stop
			c.Close() // unblocks the read loop
		}()
	}
	pool := NewPool(slots)
	var wmu sync.Mutex
	var wg sync.WaitGroup
	for {
		f, err := wire.ReadFrame(c)
		if err != nil {
			// Coordinator gone (or stop fired): drain in-flight jobs —
			// their results have nowhere to go, but the runs complete and
			// release their slots cleanly — then decide how we left. A
			// clean coordinator shutdown (EOF) is the daemon's documented
			// end of life, not an error.
			wg.Wait()
			select {
			case <-stop:
				return nil
			default:
			}
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("svc: pool daemon: coordinator connection lost: %w", err)
		}
		spec, ok := f.Payload.(wire.JobSpec)
		if f.Kind != wire.FJob || !ok {
			continue // not job traffic; ignore rather than die
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := pool.Run(spec)
			wmu.Lock()
			defer wmu.Unlock()
			_ = wire.WriteFrame(c, &wire.Frame{Kind: wire.FJobResult, Payload: res})
		}()
	}
}
