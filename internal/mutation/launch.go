package mutation

import "repro/internal/device"

// launch binds the operands of the device launches of one transform, so
// the kernels handed to the Device are method values built once per record
// rather than closures allocated on every launch. Each kernel body reads
// the fields its transform sets; release clears the references. Records
// cycle through a free list; a launch has finished every chunk when the
// Device call returns, so the record can be reused right after.
type launch struct {
	v, src, f []float64
	vs        [][]float64 // the vectors of a batched transform
	fs        []Factor2
	inv       []float64 // shift-invert spectrum
	g         group     // a grouped or single-bit Kronecker factor
	x         *Xmvp

	B, off0, rb0, m, lowMask int
	per                      int // tiles or row bases per vector of a batch
	stride                   int
	scale                    float64

	tiles, cross           func(lo, hi int) // blocked.go
	batchTiles, batchCross func(lo, hi int) // batch.go
	fwhtTiles, fwhtCross   func(lo, hi int) // fwht.go
	siScale                func(lo, hi int) // fwht.go
	groupRows, pairs       func(lo, hi int) // fmmp.go
	xmvpRows               func(lo, hi int) // xmvp.go
}

var launches = make(chan *launch, 16)

// inline runs the device's elementwise kernels on the calling goroutine
// (a nil Device); the tile prologue uses its Mul.
var inline *device.Device

func getLaunch() *launch {
	select {
	case l := <-launches:
		return l
	default:
		l := new(launch)
		l.tiles, l.cross = l.runTiles, l.runCross
		l.batchTiles, l.batchCross = l.runBatchTiles, l.runBatchCross
		l.fwhtTiles, l.fwhtCross = l.runFWHTTiles, l.runFWHTCross
		l.siScale = l.runSIScale
		l.groupRows, l.pairs = l.runGroupRows, l.runPairs
		l.xmvpRows = l.runXmvpRows
		return l
	}
}

func (l *launch) release() {
	l.v, l.src, l.f, l.vs, l.fs, l.inv, l.x = nil, nil, nil, nil, nil, nil, nil
	l.g = group{}
	select {
	case launches <- l:
	default:
	}
}
