package psp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"puppies/internal/core"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// TestConcurrentClients hammers the PSP with parallel uploads, downloads
// and transform requests; run with -race to verify the store's locking.
func TestConcurrentClients(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}

	base, err := jpegc.FromPlanar(testPlanar(48, 48), jpegc.Options{Quality: 80})
	if err != nil {
		t.Fatal(err)
	}
	sch, err := core.NewScheme(core.Params{Variant: core.VariantC, MR: 32, K: 8})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				img := base.Clone()
				pair := keys.NewPairDeterministic(int64(w*1000 + i))
				pd, _, err := sch.EncryptImage(img, []core.RegionAssignment{
					{ROI: core.ROI{X: 8, Y: 8, W: 24, H: 24}, Pair: pair},
				})
				if err != nil {
					errs <- err
					continue
				}
				id, err := uploadImage(context.Background(), client, img, pd, jpegc.EncodeOptions{})
				if err != nil {
					errs <- fmt.Errorf("worker %d upload: %w", w, err)
					continue
				}
				if _, err := client.FetchImage(context.Background(), id); err != nil {
					errs <- fmt.Errorf("worker %d fetch: %w", w, err)
				}
				if _, err := client.FetchTransformed(context.Background(), id, transform.Spec{Op: transform.OpRotate180}); err != nil {
					errs <- fmt.Errorf("worker %d transform: %w", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
