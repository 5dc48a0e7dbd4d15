package classifier

import (
	"reflect"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// replayGrowth is a pool of ten 100-example chunks, each bringing three
// labels and eight feature indexes the previous chunks lacked.
func replayGrowth() ([]Example, []int) {
	return growthPool(3, 100, []int{5, 8, 11, 14, 17, 20, 23, 26, 29, 32})
}

// TestTrainAppendedWorkBound pins the cost of a replay-sampled fit: once
// the old pool outgrows the replay sample, every warm TrainAppended makes
// exactly (new + ReplaySample) × WarmStartEpochs SGD steps, however long
// the pool has grown, and before that exactly Train's full passes. Every
// new label joins the vocabulary where Train would put it. Like the other
// TrainAppended tests, it runs under each kernel choice.
func TestTrainAppendedWorkBound(t *testing.T) {
	underEachKernel(t, func(t *testing.T) {
		pool, ends := replayGrowth()
		cfg := Config{Seed: 2, Epochs: 6}
		m, full := New(cfg), New(cfg)
		warmEpochs := m.cfg.WarmStartEpochs
		replayed := 0
		for r, end := range ends {
			if err := m.TrainAppended(pool[:end]); err != nil {
				t.Fatal(err)
			}
			if err := full.Train(pool[:end]); err != nil {
				t.Fatal(err)
			}
			if m.TrainedOn() != end {
				t.Fatalf("round %d: TrainedOn %d, want the pool's %d", r, m.TrainedOn(), end)
			}
			if !reflect.DeepEqual(m.Labels(), full.Labels()) {
				t.Fatalf("round %d: vocabulary %v, Train gives %v", r, m.Labels(), full.Labels())
			}
			if r == 0 {
				if m.WarmStarted() || m.Steps() != end*cfg.Epochs {
					t.Fatalf("first fit: warm %v, %d steps; want a cold fit of %d", m.WarmStarted(), m.Steps(), end*cfg.Epochs)
				}
				continue
			}
			if !m.WarmStarted() {
				t.Fatalf("round %d: an appended pool refit cold", r)
			}
			old := ends[r-1]
			want := end * warmEpochs
			if old > ReplaySample {
				want = (end - old + ReplaySample) * warmEpochs
				replayed++
			}
			if m.Steps() != want || full.Steps() != end*warmEpochs {
				t.Errorf("round %d (pool %d): TrainAppended made %d steps, Train %d; want %d and %d",
					r, end, m.Steps(), full.Steps(), want, end*warmEpochs)
			}
		}
		if replayed < 5 {
			t.Fatalf("only %d rounds replay-sampled", replayed)
		}
		// Replaying a sample still learns the pool about as well as full
		// passes do.
		if acc, fullAcc := m.Accuracy(pool), full.Accuracy(pool); acc < fullAcc-0.03 {
			t.Errorf("replay-sampled model fits %.3f of its pool, full passes %.3f", acc, fullAcc)
		}
	})
}

// TestTrainAppendedSmallPoolIsTrain pins that while the old pool is no
// larger than the replay sample, and on a cold fit, TrainAppended is
// bit-identical to Train.
func TestTrainAppendedSmallPoolIsTrain(t *testing.T) {
	underEachKernel(t, func(t *testing.T) {
		pool, ends := growthPool(5, 50, []int{4, 6, 8, 10, 12})
		probe := make([]textproc.Sparse, 0, 40)
		for _, ex := range pool[:40] {
			probe = append(probe, ex.Features)
		}
		for _, cold := range []bool{false, true} {
			cfg := Config{Seed: 9, Epochs: 6, ColdStart: cold}
			a, b := New(cfg), New(cfg)
			for _, end := range ends {
				if err := a.Train(pool[:end]); err != nil {
					t.Fatal(err)
				}
				if err := b.TrainAppended(pool[:end]); err != nil {
					t.Fatal(err)
				}
				mustSameView(t, "TrainAppended vs Train", viewOf(a, probe), viewOf(b, probe))
				if a.Steps() != b.Steps() {
					t.Fatalf("pool %d: %d steps vs Train's %d", end, b.Steps(), a.Steps())
				}
			}
		}
	})
}

// TestTrainAppendedDeterministic pins that the replay sample is seeded:
// two models fitted through the same appended pools are bit-identical.
func TestTrainAppendedDeterministic(t *testing.T) {
	underEachKernel(t, func(t *testing.T) {
		pool, ends := replayGrowth()
		probe := make([]textproc.Sparse, 0, 50)
		for i := 0; i < len(pool); i += 20 {
			probe = append(probe, pool[i].Features)
		}
		a, b := New(Config{Seed: 4}), New(Config{Seed: 4})
		for _, end := range ends {
			if err := a.TrainAppended(pool[:end]); err != nil {
				t.Fatal(err)
			}
			if err := b.TrainAppended(pool[:end]); err != nil {
				t.Fatal(err)
			}
		}
		mustSameView(t, "same appended pools", viewOf(a, probe), viewOf(b, probe))
	})
}

// TestTrainAppendedRejectsShorterPool: a pool shorter than the previous
// one cannot extend it.
func TestTrainAppendedRejectsShorterPool(t *testing.T) {
	underEachKernel(t, func(t *testing.T) {
		pool, _ := replayGrowth()
		m := New(Config{Seed: 1})
		if err := m.Train(pool[:300]); err != nil {
			t.Fatal(err)
		}
		if err := m.TrainAppended(pool[:299]); err == nil {
			t.Fatal("TrainAppended accepted a pool shorter than the previous fit's")
		}
		if m.TrainedOn() != 300 {
			t.Errorf("the rejected call changed TrainedOn to %d", m.TrainedOn())
		}
	})
}
