#!/usr/bin/env python3
"""Regenerates the seed corpora under tests/fuzz_corpus/<harness>/.

Each seed is a byte string crafted against the harness's FuzzInput
decoding (fuzz/fuzz_util.h): TakeByte() consumes one byte, TakeUint64()
eight little-endian bytes, TakeBounded(max) is TakeUint64() % (max + 1).
The helpers below mirror that, so seeds land on interesting structures
(template families, quoted CSV, boundary integers) instead of noise.

Deterministic: running it twice produces identical files. Run from
anywhere; paths resolve relative to this file. Existing files not named
by a seed (e.g. minimized crashers checked in after a fuzzing run) are
left alone.
"""

import os
import struct

ROOT = os.path.dirname(os.path.abspath(__file__))


def u64(value):
    return struct.pack("<Q", value)


def bounded(value, maximum):
    """Bytes that make TakeBounded(maximum) yield exactly `value`."""
    assert 0 <= value <= maximum, (value, maximum)
    return u64(value)


def byte(value):
    return bytes([value & 0xFF])


def write(harness, name, payload):
    directory = os.path.join(ROOT, harness)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "wb") as f:
        f.write(payload)


# --- tokenizer: option byte + raw text -------------------------------
# The harness reads the option byte and ignores it: the tokenizer has one
# fixed rule. The seeds keep their first bytes so their files stay the
# same.
OPTION_BYTE = byte(0x07)
write("tokenizer", "ascii_mixed_case", OPTION_BYTE + b"Hello WORLD foo123 bar!")
write("tokenizer", "utf8_multilingual",
      OPTION_BYTE + "café münchen 東京 30€".encode())
write("tokenizer", "url_preserved",
      OPTION_BYTE + b"visit http://x.example/a?b=c&d=e now")
write("tokenizer", "malformed_sequences",
      OPTION_BYTE + b"ok \xc3( \xed\xa0\x80 \xc0\x80 \xf5\x80\x80\x80 end")
# Runs of tabs, newlines and spaces, at both ends too, between mixed-case
# words, a number and trailing punctuation.
write("tokenizer", "tabs_and_newlines",
      byte(0x00) + b"  Tabs\tand\nnewlines  MiXeD 99 !!!")
# The URL lookahead at the very end of the input, where "://" is the
# last thing there is to read.
write("tokenizer", "https_at_end_of_input",
      OPTION_BYTE + b"Visit HTTPS://")

# --- csv: mode byte + separator byte + payload -----------------------
write("csv", "quoted_fields",
      byte(0) + byte(0) + b'a,b,"c,d","e""f",')
write("csv", "constructed_fields",
      byte(1) + byte(0) + b"alpha\x00be\"ta\x00ga,mma\x00de\nlta\x00")
write("csv", "stream_crlf_multiline",
      byte(2) + byte(0) + b'h1,h2\r\n"multi\nline",x\r\ny,z\r\n')
write("csv", "semicolon_empty_fields",
      byte(0) + byte(1) + b';;a;;"q;q";')
write("csv", "tab_stream_trailing_newline",
      byte(2) + byte(2) + b"a\tb\nc\td\n\n")
# Mode 2 compares ScanCsvRecords with the reference reader: a leading
# UTF-8 byte-order mark (skipped) and one later in the input (content),
# a CRLF inside quotes (kept) next to CRLF terminators (dropped), and a
# last line whose quote never closes (the error, after two records).
write("csv", "stream_utf8_bom",
      byte(2) + byte(0) + b"\xef\xbb\xbftext,label\nhi,1\n\xef\xbb\xbfx,2\n")
write("csv", "stream_crlf_inside_quotes",
      byte(2) + byte(0) + b'a,"x\r\ny",b\r\n"\r",c\r\n')
write("csv", "stream_quote_flips_on_last_line",
      byte(2) + byte(0) + b'a,b\r\nc,""\r\nd,"e\r\nf')

# --- universal_code: count + values + noise + summary ----------------
values = [0, 1, 2, 3, 255, 256, (1 << 32) - 1, (1 << 63), (1 << 64) - 2]
payload = bounded(len(values), 24)
for v in values:
    payload += u64(v)
payload += bounded(17, 96)          # 17 noise bits
payload += bytes([1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1])
payload += bounded(11, 31)          # lg_vocab - 1
payload += bounded(40, 512)         # alignment_length
payload += bounded(12, 40)          # unmatched
payload += bounded(7, 12)           # inserted_or_substituted
payload += bounded(3, 8)            # slots
payload += bounded(0, 64) + bounded(2, 64) + bounded(64, 64)
payload += bounded(41, 1023)        # num_templates - 1
write("universal_code", "boundary_values", payload)
write("universal_code", "empty_stream", bounded(0, 24))

# --- pairwise: scoring + two token sequences + slot mask + lgV -------
def token_seq(tokens):
    out = bounded(len(tokens), 48)
    for t in tokens:
        out += bounded(t, 15)
    return out

payload = bounded(0, 3)  # default scoring (enables EncodeDocument diff)
payload += token_seq([1, 2, 3, 4, 5, 6, 7, 8])
payload += token_seq([1, 2, 9, 4, 5, 10, 7, 8, 11])
payload += bytes([1, 0, 0, 1, 0, 0, 0, 0, 1])  # slot mask bits
payload += bounded(8, 12)                       # lg_vocab - 4
write("pairwise", "near_duplicates", payload)

payload = bounded(1, 3)  # non-default scoring
payload += token_seq([0] * 12)
payload += token_seq([0, 0, 1, 0, 0])
payload += bytes([0] * 13)
payload += bounded(3, 12)
write("pairwise", "runs_and_gaps", payload)

payload = bounded(0, 3) + token_seq([]) + token_seq([5, 5, 5])
payload += bytes([1]) + bounded(0, 12)
write("pairwise", "empty_reference", payload)

# {1, 0, -1}: substitutions tie with gap pairs, so the tie order decides.
payload = bounded(2, 3)
payload += token_seq([3, 2, 1, 3, 3, 1, 0, 2, 0])
payload += token_seq([3, 0, 3, 2, 3, 0, 3, 0, 1, 1])
payload += bytes([0] * 10)
payload += bounded(6, 12)
write("pairwise", "tie_heavy_scoring", payload)

# The claim scan's bag-of-words bound: sequences sharing one token, so
# the bound exceeds the document's unencoded cost and a scan would skip
# the alignment; and a document that is a subsequence of the seed, so
# the overlap is the shorter length and the bound equals the cost.
payload = bounded(0, 3)
payload += token_seq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
payload += token_seq([11, 12, 13, 1, 14, 15, 11, 12, 13, 14])
payload += bytes([0] * 11)
payload += bounded(0, 12)
write("pairwise", "scan_bound_skips", payload)

payload = bounded(0, 3)
payload += token_seq([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
payload += token_seq([2, 3, 5, 6, 9])
payload += bytes([0] * 11)
payload += bounded(8, 12)
write("pairwise", "scan_bound_tight", payload)

# --- near-duplicate mode (fuzz/near_duplicate.h) ---------------------
# The pairwise and poa harnesses read a head word first; the bit above
# its old range selects this mode. Then an Rng seed, a base length and
# one edit script per edited sequence.
def edit_script(rate, blocks, length):
    """rate in 1024ths; blocks = [(insert, offset, count)] with offsets
    bounded by the running length, which this tracks."""
    out = bounded(rate, 1024) + bounded(len(blocks), 4)
    for insert, offset, count in blocks:
        out += byte(0 if insert else 1) + bounded(offset, length)
        out += bounded(count, 200)
        length = length + count if insert else length - min(count,
                                                             length - offset)
    return out

def near_duplicates(head, seed, length, scripts):
    out = u64(head) + u64(seed) + bounded(length, 600)
    for rate, blocks in scripts:
        out += edit_script(rate, blocks, length)
    return out

# One seed per NeedlemanWunsch band path: ~1% edits certify the first
# band; a 150-token block shift needs two doublings; unrelated
# sequences double until the band is the full table.
write("pairwise", "near_dup_first_band",
      near_duplicates(4, 11, 480, [(8, [(True, 100, 3), (False, 300, 2)])]))
write("pairwise", "near_dup_block_shift",
      near_duplicates(4, 12, 500, [(0, [(False, 0, 150), (True, 350, 150)])]))
write("pairwise", "near_dup_unrelated",
      near_duplicates(4, 13, 400, [(1024, [])]))

# --- poa: sequence count + sequences [+ scoring index] ---------------
def poa_seqs(seqs, scoring=None):
    out = bounded(len(seqs) - 1, 7)
    for seq in seqs:
        out += bounded(len(seq), 24)
        for t in seq:
            out += bounded(t, 11)
    if scoring is not None:
        out += bounded(scoring, 3)
    return out

write("poa", "three_variants",
      poa_seqs([[1, 2, 3, 4, 5], [1, 2, 6, 4, 5], [1, 2, 3, 7, 5, 8]]))
write("poa", "disjoint_and_empty",
      poa_seqs([[1, 1, 2], [], [3, 4, 5, 6]]))
write("poa", "single_long",
      poa_seqs([[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2]]))
# {1, 0, -1}: substitutions tie with gap pairs, so the tie order decides.
write("poa", "tie_heavy_scoring",
      poa_seqs([[2, 2, 1, 1, 0, 2, 3, 0], [0, 3, 1, 3, 3, 1],
                [1, 0, 0, 1, 0]], scoring=2))

# One seed per AddSequence band path, as for pairwise. The first adds a
# 20-token deletion, so the graph gets a bubble of unequal length.
write("poa", "near_dup_first_band",
      near_duplicates(8 + 2, 21, 450, [(8, [(False, 200, 20)]),
                                       (8, [(True, 100, 15)])]))
write("poa", "near_dup_block_shift",
      near_duplicates(8 + 1, 22, 500, [(0, [(False, 0, 150),
                                            (True, 350, 150)])]))
write("poa", "near_dup_unrelated",
      near_duplicates(8 + 1, 23, 400, [(1024, [])]))

# --- diff_fine / diff_coarse: option byte + synthetic families -------
def family(base, docs):
    """One template family: base phrase + per-doc mutations, one per
    base word. A mutation is a byte, or a (byte, word, ...) tuple whose
    word ids follow the byte as the decoder reads them: the substituted
    word for 0x02, then the inserted word for 0x10."""
    out = bounded(len(base) - 3, 9)
    for w in base:
        out += bounded(w, 15)
    out += bounded(len(docs) - 2, 3)
    for mutations in docs:
        assert len(mutations) >= len(base)
        for mutation in mutations[:len(base)]:
            m, *words = mutation if isinstance(mutation, tuple) else (mutation,)
            out += byte(m)
            for w in words:
                out += bounded(w, 15)
    return out

def synthetic(option_bits, families, noise_docs):
    out = byte(option_bits)
    out += bounded(len(families) - 1, 2)
    for base, docs in families:
        out += family(base, docs)
    out += bounded(len(noise_docs), 3)
    for words in noise_docs:
        out += bounded(len(words) - 1, 7)
        for selector, word in words:
            out += byte(selector) + bounded(word, 9 if selector & 1 else 15)
    return out

CLEAN = [0x00] * 12          # copy base verbatim
SUBST = [0x00, 0x02, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
         0x00]               # substitute two positions
DELINS = [0x01, 0x00, 0x10, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
          0x00]              # one delete, one insert, one more delete

# Mutation bytes are followed inline by substituted/inserted word ids;
# interleave them where the decoder expects them.
def docs_with_words(base_len, mutations, extra_words):
    stream = []
    extras = list(extra_words)
    for m in mutations[:base_len]:
        stream.append(m)
    return stream, extras

# For seed simplicity, use mutation bytes that need no extra words
# (0x00 copy, 0x01 delete) plus explicit streams for subst/insert.
two_families = [
    ([1, 2, 3, 4, 5, 6], [[0] * 6, [0] * 6, [0, 1, 0, 0, 0, 0]]),
    ([7, 8, 9, 10, 11, 12, 13], [[0] * 7, [0, 0, 1, 0, 0, 0, 0]]),
]
noise = [[(0x01, 3), (0x00, 5)], [(0x01, 7)]]

# diff_fine's option byte: 0x02 selects the tie-heavy scoring {1, 0, -1},
# 0x04 unigram phrases; 0x01 is unused, so exhaustive_search, named for
# the consensus search it once selected, now runs the default options.
write("diff_fine", "two_families", synthetic(0x00, two_families, noise))
write("diff_fine", "tie_heavy_scoring", synthetic(0x02, two_families, []))
write("diff_fine", "exhaustive_search",
      synthetic(0x01, [([2, 4, 6, 8, 10], [[0] * 5, [0] * 5])], noise))
# Three families with deletions over the shared 16-word vocabulary. As
# one cluster (the harness's full-scan check) its MDL totals round
# differently if production reorders a term of its acceptance total, so
# the serial reference loop's cost_after bits catch that.
three_families = [
    ([15, 10, 2, 6, 5, 11, 2, 11, 4, 11, 6],
     [[0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0],
      [0] * 11]),
    ([4, 7, 9, 8, 15, 12, 3, 3, 11, 14, 15],
     [[0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
      [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0], [0] * 11]),
    ([12, 0, 12, 4, 12, 11, 12, 4],
     [[0, 1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 1, 1, 0, 0, 0],
      [1, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]]),
]
write("diff_fine", "three_families_acceptance",
      synthetic(0x00, three_families, []))
# Two adjacent words swapped in three of five documents. The tie-heavy
# scoring aligns a swapped pair as two free mismatches, the default one
# as a deletion and an insertion around a match, so the two fuse
# different POA graphs and the whole corpus as one cluster accepts
# different template tokens: the seed fails if the fine stage's POA
# ignores FineOptions::scoring.
swap_base = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
swapped = [0, 0, 0, 0, (2, 6), (2, 5), 0, 0, 0, 0, 0]
write("diff_fine", "tie_heavy_swaps",
      synthetic(0x02, [(swap_base, [[0] * 11, [0] * 11, swapped, swapped,
                                    swapped])], []))

write("diff_coarse", "two_families", synthetic(0x00, two_families, noise))
write("diff_coarse", "unigrams_and_degree_cap",
      synthetic(0x05, two_families, noise))
write("diff_coarse", "min_cluster_three",
      synthetic(0x08, [([1, 3, 5, 7, 9, 11], [[0] * 6, [0] * 6, [0] * 6])],
                []))

# --- diff_coarse_backend: params + exact-duplicate families ----------
# Decode order: shingle_k-1, band choice, num_families-1, then per
# family (len-3, len word ids, extra copies), then num_noise and per
# noise doc (len-1, len word ids). Families are exact duplicates over
# disjoint vocabularies, the regime where both backends must agree.
def backend_corpus(shingle_k, band_choice, families, noise):
    out = bounded(shingle_k - 1, 3) + bounded(band_choice, 3)
    out += bounded(len(families) - 1, 3)
    for words, extra_copies in families:
        out += bounded(len(words) - 3, 7)
        for w in words:
            out += bounded(w, 15)
        out += bounded(extra_copies, 3)
    out += bounded(len(noise), 3)
    for words in noise:
        out += bounded(len(words) - 1, 7)
        for w in words:
            out += bounded(w, 7)
    return out

write("diff_coarse_backend", "two_families_k3",
      backend_corpus(3, 0,
                     [([1, 2, 3, 4, 5, 6], 1), ([7, 8, 9, 10, 11], 2)],
                     [[1, 2], [3]]))
write("diff_coarse_backend", "short_docs_rows8",
      backend_corpus(2, 2, [([0, 1, 2], 0)], [[5, 5, 5, 5]]))
write("diff_coarse_backend", "unigram_shingles_four_families",
      backend_corpus(1, 3,
                     [([3, 3, 4], 3), ([6, 7, 8, 9], 2),
                      ([10, 11, 12, 13, 14, 15, 0, 1], 0), ([2, 4, 6], 1)],
                     []))
write("diff_coarse_backend", "repeated_words_k4",
      backend_corpus(4, 1, [([5, 5, 5, 5, 5, 5, 5], 3)], [[0], [1, 1]]))

# --- diff_incremental: option byte + families + batch cut points -----
# After the synthetic corpus, the harness decodes ascending batch cut
# increments with TakeBounded(docs_remaining); exhausted input implies
# "everything left in one final batch". two_families + noise decodes to
# 7 documents.
write("diff_incremental", "two_families_three_batches",
      synthetic(0x00, two_families, noise) + u64(3) + u64(2))
write("diff_incremental", "threaded_with_degree_cap",
      synthetic(0x14, two_families, noise) + u64(1) + u64(1) + u64(1))
write("diff_incremental", "unigram_vocab_growth",
      synthetic(0x03, two_families, noise) + u64(2) + u64(0) + u64(4))
# One document per batch: every batch after the first promotes phrases
# its predecessors saw once, which become eligible top phrases only then.
# The seed keeps its option byte 0x20, a bit the harness now ignores, so
# it runs the default options.
write("diff_incremental", "single_doc_batches",
      synthetic(0x20, two_families, noise) + u64(1) * 6)

print("seed corpora regenerated under", ROOT)
