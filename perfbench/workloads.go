package main

import (
	"context"
	"fmt"
	"math/rand"

	"vecycle/internal/checkpoint"
	"vecycle/internal/sched"
	"vecycle/internal/vm"
)

// churnFrac is the share of guest pages dirtied on the remote host between
// return-churn legs.
const churnFrac = 0.05

// siblings is how many sibling checkpoints union-warm's destination holds.
const siblings = 4

// chunkPages is the granularity at which a union-warm guest shares content
// with the template: runs of pages, as cloned guests share runs of OS and
// library pages.
const chunkPages = 64

// workload drives one scenario's legs on a bench.
type workload interface {
	// setup builds the hosts, stores and guests and runs the warm-up legs.
	setup(ctx context.Context) error
	// next prepares a leg outside the timed window.
	next() (*leg, error)
	// landed retires a verified leg outside the timed window.
	landed(l *leg, r legResult) error
}

var workloadNames = []string{"cold", "return-churn", "union-warm"}

func newWorkload(name string, b *bench) (workload, error) {
	switch name {
	case "cold":
		return &coldWorkload{firstVisit{b: b}}, nil
	case "return-churn":
		return &churnWorkload{b: b}, nil
	case "union-warm":
		return &unionWorkload{firstVisit: firstVisit{b: b}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// firstVisit is the leg shape shared by cold and union-warm: a fresh guest
// leaves a long-lived source for a destination host that has never seen it,
// around a store that outlives the host.
type firstVisit struct {
	b        *bench
	src      *sched.Host
	srcStore *checkpoint.Store
	dstStore *checkpoint.Store
}

func (f *firstVisit) open() error {
	var err error
	if f.srcStore, err = f.b.openStore("src"); err != nil {
		return err
	}
	if f.dstStore, err = f.b.openStore("dst"); err != nil {
		return err
	}
	f.src, _, err = f.b.newHost(f.srcStore, true)
	return err
}

// leg places guest on the source and starts a destination host on the
// destination store. The destination is fresh each leg, so the arriving
// guest is never resident there already.
func (f *firstVisit) leg(guest *vm.VM) (*leg, error) {
	dst, addr, err := f.b.newHost(f.dstStore, false)
	if err != nil {
		return nil, err
	}
	f.src.AddVM(guest)
	return &leg{src: f.src, dst: dst, addr: addr, guest: guest}, nil
}

// landed drops the destination host with its guest, and the source's
// departure checkpoint, so every leg starts from the same stores.
func (f *firstVisit) landed(l *leg, _ legResult) error {
	if err := l.dst.Close(); err != nil {
		return err
	}
	if err := f.srcStore.Remove(vmName); err != nil {
		return err
	}
	_, err := f.srcStore.GC()
	return err
}

// coldWorkload: a fresh guest moves to a host whose store holds nothing.
type coldWorkload struct {
	firstVisit
}

func (w *coldWorkload) setup(ctx context.Context) error {
	if err := w.open(); err != nil {
		return err
	}
	return warmUp(ctx, w.b, w, 1)
}

func (w *coldWorkload) next() (*leg, error) {
	g, err := w.b.newGuest(w.b.rng.Int63())
	if err != nil {
		return nil, err
	}
	return w.leg(g)
}

// churnWorkload: one guest ping-pongs between two hosts, dirtying a few
// pages on each before it returns to the other.
type churnWorkload struct {
	b     *bench
	hosts [2]*sched.Host
	addrs [2]string
	at    int    // index of the host the guest is on
	guest *vm.VM // the guest, resident on hosts[at]
}

func (w *churnWorkload) setup(ctx context.Context) error {
	for i := range w.hosts {
		st, err := w.b.openStore(fmt.Sprintf("host%d", i))
		if err != nil {
			return err
		}
		if w.hosts[i], w.addrs[i], err = w.b.newHost(st, true); err != nil {
			return err
		}
	}
	g, err := w.b.newGuest(w.b.rng.Int63())
	if err != nil {
		return err
	}
	w.guest = g
	w.hosts[0].AddVM(g)
	// The first visit is cold and the second a return; from then on every
	// leg returns to a host holding the guest's previous checkpoint.
	return warmUp(ctx, w.b, w, 2)
}

func (w *churnWorkload) next() (*leg, error) {
	churn(w.guest, w.b.rng, int(churnFrac*float64(w.guest.NumPages())))
	to := 1 - w.at
	return &leg{src: w.hosts[w.at], dst: w.hosts[to], addr: w.addrs[to], guest: w.guest}, nil
}

func (w *churnWorkload) landed(l *leg, r legResult) error {
	w.at = 1 - w.at
	w.guest = r.arrived
	return nil
}

// churn rewrites n distinct random pages with fresh random content.
func churn(g *vm.VM, rng *rand.Rand, n int) {
	buf := make([]byte, vm.PageSize)
	for _, p := range rng.Perm(g.NumPages())[:n] {
		rng.Read(buf) //nolint:errcheck // math/rand Read never fails
		g.WritePage(p, buf)
	}
}

// unionWorkload: a never-seen guest lands on a host holding checkpoints of
// siblings cloned from the same template, each sharing half its pages.
type unionWorkload struct {
	firstVisit
	template *vm.VM
	shared   []bool // per page: content comes from the template
	filled   int    // pages the template filled; the rest stay zero
}

func (w *unionWorkload) setup(ctx context.Context) error {
	if err := w.open(); err != nil {
		return err
	}
	t, err := w.b.newGuest(w.b.rng.Int63())
	if err != nil {
		return err
	}
	w.template = t
	w.filled = int(fillFrac * float64(t.NumPages()))
	w.shared = halfChunks(t.NumPages(), w.b.rng)
	for s := 0; s < siblings; s++ {
		sib, err := w.clone(fmt.Sprintf("sibling-%d", s))
		if err != nil {
			return err
		}
		if err := w.dstStore.Save(sib); err != nil {
			return err
		}
	}
	return warmUp(ctx, w.b, w, 1)
}

func (w *unionWorkload) next() (*leg, error) {
	g, err := w.clone(vmName)
	if err != nil {
		return nil, err
	}
	return w.leg(g)
}

// clone copies the template's shared pages and fills its other filled
// pages with content of its own.
func (w *unionWorkload) clone(name string) (*vm.VM, error) {
	g, err := vm.New(vm.Config{Name: name, MemBytes: w.template.MemBytes(), Seed: w.b.rng.Int63()})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, vm.PageSize)
	for p := 0; p < w.filled; p++ {
		if w.shared[p] {
			w.template.ReadPage(p, buf)
		} else {
			w.b.rng.Read(buf) //nolint:errcheck // math/rand Read never fails
		}
		g.WritePage(p, buf)
	}
	return g, nil
}

// halfChunks marks a random half of the chunkPages-sized runs of pages.
func halfChunks(pages int, rng *rand.Rand) []bool {
	chunks := (pages + chunkPages - 1) / chunkPages
	marks := make([]bool, pages)
	for _, c := range rng.Perm(chunks)[:chunks/2] {
		for p := c * chunkPages; p < (c+1)*chunkPages && p < pages; p++ {
			marks[p] = true
		}
	}
	return marks
}

// warmUp runs n legs that feed no figures.
func warmUp(ctx context.Context, b *bench, w workload, n int) error {
	for i := 0; i < n; i++ {
		l, err := w.next()
		if err != nil {
			return err
		}
		r, err := b.run(ctx, l, false)
		if err != nil {
			return fmt.Errorf("warm-up leg %d: %w", i+1, err)
		}
		if err := w.landed(l, r); err != nil {
			return err
		}
	}
	return nil
}
