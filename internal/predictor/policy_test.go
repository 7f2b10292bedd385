package predictor

import "testing"

// White-box checks of the partial-update policies the paper describes in §2.

func TestBiModeChoiceUpdateException(t *testing.T) {
	// The choice table is NOT updated when the choice was opposite to the
	// outcome but the selected direction bank predicted correctly.
	p := NewBiMode(1 << 10)
	pc := uint64(0x100)

	// Train the not-taken bank (choice starts weakly not-taken = bank 0)
	// to predict taken for this branch's index.
	for i := 0; i < 2; i++ {
		p.Predict(pc)
		p.Update(pc, true)
	}
	// Now: choice counter has been pushed toward taken twice from init 1.
	// Reset and craft the exact exception state instead.
	p.Reset()

	// Step 1: establish direction bank 0 predicting taken while the choice
	// still says not-taken. With ctrInit=1, one taken outcome moves the
	// selected bank 0 counter to 2 (taken) and choice to 2 as well — so to
	// isolate the rule, drive the choice back down with not-taken outcomes
	// at a different history so the direction bank entry differs.
	choiceBefore := func() uint8 {
		c, _ := p.choice.read(pcIndex(pc), pc)
		return c
	}

	// Make the selected bank correct while the choice is wrong:
	// choice=1 (not-taken) selects bank 0; bank 0's counter at the current
	// index is forced to taken manually.
	p.Reset()
	idx := gshareIndex(pc, p.hist.bits)
	p.direction[0].update(idx, true)
	p.direction[0].update(idx, true) // bank 0 now predicts taken

	before := choiceBefore()
	if got := p.Predict(pc); !got {
		t.Fatalf("setup failed: final prediction should be taken via bank 0")
	}
	p.Update(pc, true) // outcome taken: choice (not-taken) wrong, bank right
	if after := choiceBefore(); after != before {
		t.Fatalf("choice table updated despite the exception rule: %d -> %d", before, after)
	}

	// Control: when the selected bank is also wrong, the choice must train.
	p.Reset()
	before = choiceBefore()
	if got := p.Predict(pc); got {
		t.Fatalf("fresh bi-mode should predict not-taken")
	}
	p.Update(pc, true) // everyone wrong: choice trains toward taken
	if after := choiceBefore(); after != before+1 {
		t.Fatalf("choice table did not train on a plain misprediction: %d -> %d", before, after)
	}
}

// bcgskewIndices is p's BIM, G0, G1 and META indices for pc at its current
// history, as Predict stashes them. The Predict runs on a copy sharing p's
// tables, which it only reads while collision tags are off.
func bcgskewIndices(p *TwoBcGskew, pc uint64) [4]uint64 {
	q := *p
	q.Predict(pc)
	return q.lIdx
}

func TestTwoBcGskewMetaOnlyTrainsOnDisagreement(t *testing.T) {
	p := NewTwoBcGskew(1 << 10)
	pc := uint64(0x200)

	metaVal := func() uint8 {
		idx := bcgskewIndices(p, pc)
		c, _ := p.meta.read(idx[3], pc)
		return c
	}

	// Fresh predictor: BIM and majority both predict not-taken (all
	// counters weakly not-taken) — they agree, so META must not move.
	before := metaVal()
	p.Predict(pc)
	p.Update(pc, true)
	// history shifted, so recompute meta at the OLD index is impossible;
	// instead verify indirectly: re-reset and inspect with zero history.
	p.Reset()
	before = metaVal()
	p.Predict(pc)
	p.Update(pc, false) // correct, components agree
	p.Reset()           // history back to zero for a comparable read
	if after := metaVal(); after != before {
		t.Fatalf("META trained while components agreed: %d -> %d", before, after)
	}
}

func TestTwoBcGskewBadPredictionTrainsAllBanks(t *testing.T) {
	p := NewTwoBcGskew(1 << 10)
	pc := uint64(0x300)

	idx := bcgskewIndices(p, pc)
	read := func(tb *table, i uint64) uint8 {
		c, _ := tb.read(i, pc)
		return c
	}
	b0 := read(p.bim, idx[0])
	g0 := read(p.g0, idx[1])
	g1 := read(p.g1, idx[2])

	if p.Predict(pc) {
		t.Fatalf("fresh 2bcgskew should predict not-taken")
	}
	p.Update(pc, true) // misprediction: all three c-gskew banks must train

	if read(p.bim, idx[0]) != b0+1 || read(p.g0, idx[1]) != g0+1 || read(p.g1, idx[2]) != g1+1 {
		t.Fatalf("not all banks trained on a misprediction: bim %d->%d g0 %d->%d g1 %d->%d",
			b0, read(p.bim, idx[0]), g0, read(p.g0, idx[1]), g1, read(p.g1, idx[2]))
	}
}

func TestTwoBcGskewCorrectViaBimodalOnlyTrainsBim(t *testing.T) {
	p := NewTwoBcGskew(1 << 10)
	pc := uint64(0x400)

	idx := bcgskewIndices(p, pc)
	g0Before, _ := p.g0.read(idx[1], pc)

	if p.Predict(pc) {
		t.Fatalf("fresh 2bcgskew should predict not-taken")
	}
	// META starts at not-taken => bimodal selected; outcome not-taken is a
	// correct prediction via BIM. G banks also agreed (all weakly NT), but
	// the policy re-enforces only BIM on a bimodal-selected correct
	// prediction.
	p.Update(pc, false)

	bimAfter, _ := p.bim.read(idx[0], pc)
	if bimAfter != 0 {
		t.Fatalf("BIM not re-enforced: %d", bimAfter)
	}
	g0After, _ := p.g0.read(idx[1], pc)
	if g0After != g0Before {
		t.Fatalf("G0 trained on a bimodal-selected correct prediction: %d -> %d", g0Before, g0After)
	}
}

func TestYAGSExceptionAllocation(t *testing.T) {
	p := NewYAGS(1 << 10)
	pc := uint64(0x500)

	// Drive the branch taken until the choice table is strongly taken.
	for i := 0; i < 4; i++ {
		p.Predict(pc)
		p.Update(pc, true)
	}
	// Now a not-taken outcome deviates from the choice direction: the
	// NT-cache must allocate an exception entry.
	p.Predict(pc)
	p.Update(pc, false)
	idx := (pcIndex(pc) ^ p.hist.value(p.hist.len)) & p.cacheMask
	_ = idx // the entry was written at the pre-shift history index
	found := false
	for _, tag := range p.cacheTag[0] {
		if tag == p.tag(pc) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("NT-cache did not allocate on an exception outcome")
	}
}
