package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tokenpicker/internal/model"
	"tokenpicker/internal/sample"
	"tokenpicker/internal/tensor"
)

// reference is one request decoded outside the engine.
type reference struct {
	tokens []int
	// agree counts generation positions where the Token-Picker logits and
	// exact-attention logits have the same argmax, out of positions.
	agree, positions int
}

// refDecoder is a pair of plain model.Decoders — the serving kernel and
// exact attention — that already hold a prompt prefix every request shares.
type refDecoder struct {
	picker, exact *model.Decoder
	shared        int
}

func newRefDecoder(params *model.Params, shared []int) (*refDecoder, error) {
	d := &refDecoder{
		picker: model.NewDecoder(params, newKernel()),
		exact:  model.NewDecoder(params, nil),
		shared: len(shared),
	}
	if len(shared) > 0 {
		if _, err := d.picker.Prompt(shared); err != nil {
			return nil, err
		}
		if _, err := d.exact.Prompt(shared); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// decode decodes req with the serving kernel and the request's sampler, and
// teacher-forces the same tokens through exact attention to compare argmaxes
// position by position. The first token is excluded from the comparison: it
// comes from the exact prefill on both sides.
func (d *refDecoder) decode(req *request) (reference, error) {
	var ref reference
	d.picker.Rollback(d.shared)
	d.exact.Rollback(d.shared)
	lp, err := d.picker.Prompt(req.prompt[d.shared:])
	if err != nil {
		return ref, err
	}
	le, err := d.exact.Prompt(req.prompt[d.shared:])
	if err != nil {
		return ref, err
	}
	sampler, err := sample.New(req.sampling)
	if err != nil {
		return ref, err
	}
	history := slices.Clone(req.prompt)
	for i := 0; i < req.maxTokens; i++ {
		if i > 0 {
			ref.positions++
			if tensor.Argmax(lp) == tensor.Argmax(le) {
				ref.agree++
			}
		}
		tok := sampler.Sample(lp, history)
		ref.tokens = append(ref.tokens, tok)
		history = append(history, tok)
		if i == req.maxTokens-1 {
			break
		}
		if lp, err = d.picker.Step(tok); err != nil {
			return ref, err
		}
		if le, err = d.exact.Step(tok); err != nil {
			return ref, err
		}
	}
	return ref, nil
}

// verification is the outcome of checking a window's sampled completions.
type verification struct {
	checked, matched int
	agree, positions int
	mismatches       []string
}

// verify decodes the sampled window requests on every core and compares
// each served completion with its reference. shared is the prompt prefix
// every request starts with (the system prompt), decoded once per core.
func verify(params *model.Params, in *inputs, win *window, shared []int) (verification, error) {
	refs := make([]reference, len(in.verify))
	errs := make([]error, runtime.NumCPU())
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := newRefDecoder(params, shared)
			if err != nil {
				errs[g] = err
				return
			}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(in.verify) {
					return
				}
				req := &in.window[in.verify[k]]
				if refs[k], err = d.decode(req); err != nil {
					errs[g] = fmt.Errorf("reference decode of %s: %w", req.id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var v verification
	for _, err := range errs {
		if err != nil {
			return v, err
		}
	}
	for k, i := range in.verify {
		v.checked++
		v.agree += refs[k].agree
		v.positions += refs[k].positions
		if slices.Equal(win.results[i].toks, refs[k].tokens) {
			v.matched++
			continue
		}
		win.results[i].mismatch = true
		v.mismatches = append(v.mismatches, fmt.Sprintf("%s: served %v, reference %v",
			in.window[i].id, win.results[i].toks, refs[k].tokens))
	}
	return v, nil
}
