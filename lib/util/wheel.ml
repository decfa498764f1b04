(* Two-level hashed timing wheel with an exact total pop order.

   A priority queue over (time, seq) keys — seq is an internal counter
   giving FIFO order among equal times — split into four stores by
   temporal distance from a moving [cursor] (an absolute level-1 slot):

     - the *current-slot heap* [cur]: entries whose slot is at or before
       the cursor.  Pop is extract-min over this small heap — its size is
       one slot's occupancy, not the whole queue's, so the sift working
       set stays cache-resident however many events are outstanding.
     - *level 1*: one append-only vector per slot for entries within
       [n_slots] slots of the cursor.  Insert and (swap) remove are O(1).
     - *level 2*: [n_buckets] vectors, each one level-1 revolution wide,
       for entries whose bucket is within [n_buckets] buckets of the
       cursor's.  Insert and remove are O(1); when the cursor is about to
       enter a bucket, the bucket cascades into level-1 slots.
     - the *overflow heap* [over]: entries beyond the level-2 horizon.
       They migrate into [cur] when the cursor reaches their slot, so a
       far-future event pays two O(log overflow) heap operations in its
       lifetime, however often the cursor turns.

   Exactness argument (why pop order equals a single heap's): every entry
   in [cur] has slot <= cursor; every level-1 and overflow entry has slot
   > cursor; every level-2 entry has bucket > the cursor's bucket, so
   slot > cursor too.  All [cur] times are therefore strictly below all
   other times (slot boundaries are time boundaries).  When [cur] drains,
   the refill finds the minimum occupied slot [k] across level 1 and
   overflow.  If [k] reaches past the cursor's bucket and the first
   occupied level-2 bucket starts at or before [k], no entry anywhere
   lies between the cursor and that bucket's start, so the cursor moves
   to just before it and the bucket's entries drop into level-1 slots —
   all within one revolution of the new cursor — after which [k] is
   recomputed.  The cursor then advances to [k] and moves exactly that
   slot's entries into [cur]: nothing is skipped, nothing later is mixed
   in.  Within [cur] the heap orders by (time, seq), which is a total
   order (seq is unique), so the interleaving of pops and inserts cannot
   depend on internal layout.  [slots = 0] degenerates to a single binary
   heap over the same keys — the reference the property tests compare
   against.

   Entry blocks are reusable via {!reinsert}: a re-inserted entry takes a
   fresh seq, so FIFO tie-breaking treats it as the newest arrival. *)

type 'a entry = {
  mutable time : int;
  mutable seq : int;
  mutable value : 'a;
  mutable where : int; (* w_out, w_cur, w_over, or a physical slot index *)
  mutable pos : int; (* index within the slot vector or heap array *)
}

type 'a handle = 'a entry

let w_out = -1
let w_cur = -2
let w_over = -3

(* Shared sentinel for empty array cells (no option boxing): every access
   is guarded by a length, so the dummy's value is never read. *)
let sentinel_block : unit entry =
  { time = max_int; seq = max_int; value = (); where = w_out; pos = -1 }

let sentinel () : 'a entry = Obj.magic sentinel_block

(* ---- internal binary heap over (time, seq) ----------------------------- *)

(* Layout trick: the key of slot [i] is mirrored into a flat int array at
   [pkey.(2i)] / [pkey.(2i+1)], so sift comparisons read cache-line-local
   unboxed ints; entry blocks are touched only when a slot actually
   moves. *)
type 'a pq = {
  mutable parr : 'a entry array;
  mutable pkey : int array;
  mutable plen : int;
}

let pq_create () = { parr = Array.make 16 (sentinel ()); pkey = Array.make 32 0; plen = 0 }

let pq_set q i e =
  q.parr.(i) <- e;
  q.pkey.((2 * i)) <- e.time;
  q.pkey.((2 * i) + 1) <- e.seq;
  e.pos <- i

let pq_grow q =
  if q.plen = Array.length q.parr then begin
    let cap = 2 * Array.length q.parr in
    let bigger = Array.make cap (sentinel ()) in
    Array.blit q.parr 0 bigger 0 q.plen;
    q.parr <- bigger;
    let bigger_key = Array.make (2 * cap) 0 in
    Array.blit q.pkey 0 bigger_key 0 (2 * q.plen);
    q.pkey <- bigger_key
  end

let pq_sift_up q i0 =
  if i0 > 0 then begin
    let e = q.parr.(i0) in
    let k = q.pkey in
    let et = Array.unsafe_get k (2 * i0) and es = Array.unsafe_get k ((2 * i0) + 1) in
    let i = ref i0 in
    let continue = ref true in
    while !continue do
      if !i = 0 then continue := false
      else begin
        let parent = (!i - 1) / 2 in
        let pt = Array.unsafe_get k (2 * parent)
        and ps = Array.unsafe_get k ((2 * parent) + 1) in
        if et < pt || (et = pt && es < ps) then begin
          let moved = q.parr.(parent) in
          q.parr.(!i) <- moved;
          moved.pos <- !i;
          Array.unsafe_set k (2 * !i) pt;
          Array.unsafe_set k ((2 * !i) + 1) ps;
          i := parent
        end
        else continue := false
      end
    done;
    if !i <> i0 then begin
      q.parr.(!i) <- e;
      e.pos <- !i;
      Array.unsafe_set k (2 * !i) et;
      Array.unsafe_set k ((2 * !i) + 1) es
    end
  end

let pq_sift_down q i0 =
  let e = q.parr.(i0) in
  let k = q.pkey in
  let et = Array.unsafe_get k (2 * i0) and es = Array.unsafe_get k ((2 * i0) + 1) in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= q.plen then continue := false
    else begin
      let m = ref l in
      let r = l + 1 in
      if r < q.plen then begin
        let lt = Array.unsafe_get k (2 * l) and ls = Array.unsafe_get k ((2 * l) + 1) in
        let rt = Array.unsafe_get k (2 * r) and rs = Array.unsafe_get k ((2 * r) + 1) in
        if rt < lt || (rt = lt && rs < ls) then m := r
      end;
      let mt = Array.unsafe_get k (2 * !m) and ms = Array.unsafe_get k ((2 * !m) + 1) in
      if mt < et || (mt = et && ms < es) then begin
        let child = q.parr.(!m) in
        q.parr.(!i) <- child;
        child.pos <- !i;
        Array.unsafe_set k (2 * !i) mt;
        Array.unsafe_set k ((2 * !i) + 1) ms;
        i := !m
      end
      else continue := false
    end
  done;
  if !i <> i0 then begin
    q.parr.(!i) <- e;
    e.pos <- !i;
    Array.unsafe_set k (2 * !i) et;
    Array.unsafe_set k ((2 * !i) + 1) es
  end

let pq_push q tag e =
  pq_grow q;
  e.where <- tag;
  q.plen <- q.plen + 1;
  pq_set q (q.plen - 1) e;
  pq_sift_up q (q.plen - 1)

let pq_delete q i =
  let victim = q.parr.(i) in
  victim.pos <- -1;
  victim.where <- w_out;
  let last = q.plen - 1 in
  if i = last then begin
    q.parr.(last) <- sentinel ();
    q.plen <- last
  end
  else begin
    let moved = q.parr.(last) in
    q.parr.(last) <- sentinel ();
    q.plen <- last;
    pq_set q i moved;
    pq_sift_down q i;
    pq_sift_up q i
  end;
  victim

let pq_heapify q =
  if q.plen > 1 then
    for i = (q.plen - 2) / 2 downto 0 do
      pq_sift_down q i
    done

let pq_filter q keep =
  let kept = ref 0 in
  for i = 0 to q.plen - 1 do
    let e = q.parr.(i) in
    if keep e.value then begin
      pq_set q !kept e;
      incr kept
    end
    else begin
      e.pos <- -1;
      e.where <- w_out
    end
  done;
  for i = !kept to q.plen - 1 do
    q.parr.(i) <- sentinel ()
  done;
  q.plen <- !kept;
  pq_heapify q

(* ---- wheel levels -------------------------------------------------------- *)

type 'a slot = { mutable sarr : 'a entry array; mutable slen : int }

type 'a t = {
  bits : int; (* slot width = 2^bits time units *)
  n_slots : int; (* power of two; 0 = pure-heap mode *)
  mask : int;
  lg_slots : int; (* log2 n_slots: a bucket is [slot asr lg_slots] *)
  slots : 'a slot array;
      (* [n_slots] level-1 slot vectors, then [n_buckets] level-2 bucket
         vectors; an entry's [where] is its index here *)
  occ : int array; (* level-1 occupancy bitmap, 32 slots per word (OCaml ints are 63-bit) *)
  occ2 : int array; (* level-2 occupancy bitmap, same layout *)
  mutable cursor : int; (* absolute slot index the current-slot heap covers *)
  cur : 'a pq;
  over : 'a pq;
  mutable in_slots : int; (* entries currently held in level-1 slots *)
  mutable in_buckets : int; (* entries currently held in level-2 buckets *)
  mutable size : int;
  mutable next_seq : int;
  (* occupancy statistics for the profiler: cheap counters on paths that
     already do heap work, plus one compare per insert for the high-water *)
  mutable s_overflow : int; (* inserts routed beyond the level-2 horizon *)
  mutable s_migrated : int; (* overflow entries later moved into [cur] *)
  mutable s_cascaded : int; (* level-2 entries moved down into level-1 slots *)
  mutable s_hw_size : int; (* high-water of [size] *)
  mutable s_hw_cur : int; (* high-water of the current-slot heap *)
}

type stats = {
  overflow_inserts : int;
  overflow_migrations : int;
  cascades : int;
  hw_size : int;
  hw_cur : int;
  size_now : int;
}

let default_bits = 14 (* 16.384 us slots at ns resolution *)
let default_slots = 1024 (* level-1 horizon: 1024 slots = 16.8 ms *)

(* Level 2: 64 buckets of one level-1 revolution each (~1.07 s at the
   default geometry). *)
let n_buckets = 64
let bucket_mask = n_buckets - 1

let create ?(bits = default_bits) ?(slots = default_slots) ?(start = 0) () =
  if bits < 0 || bits > 40 then invalid_arg "Wheel.create: bits out of range";
  if slots <> 0 && slots land (slots - 1) <> 0 then
    invalid_arg "Wheel.create: slots must be a power of two (or 0 for pure-heap mode)";
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let vectors = if slots = 0 then 0 else slots + n_buckets in
  {
    bits;
    n_slots = slots;
    mask = slots - 1;
    lg_slots = log2 slots;
    slots = Array.init vectors (fun _ -> { sarr = [||]; slen = 0 });
    occ = Array.make (Stdlib.max 1 ((slots + 31) / 32)) 0;
    occ2 = Array.make (n_buckets / 32) 0;
    cursor = start asr bits;
    cur = pq_create ();
    over = pq_create ();
    in_slots = 0;
    in_buckets = 0;
    size = 0;
    next_seq = 0;
    s_overflow = 0;
    s_migrated = 0;
    s_cascaded = 0;
    s_hw_size = 0;
    s_hw_cur = 0;
  }

let stats t =
  {
    overflow_inserts = t.s_overflow;
    overflow_migrations = t.s_migrated;
    cascades = t.s_cascaded;
    hw_size = t.s_hw_size;
    hw_cur = t.s_hw_cur;
    size_now = t.size;
  }

let size t = t.size
let is_empty t = t.size = 0

let take_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let bit_set occ p = occ.(p lsr 5) <- occ.(p lsr 5) lor (1 lsl (p land 31))
let bit_clear occ p = occ.(p lsr 5) <- occ.(p lsr 5) land lnot (1 lsl (p land 31))

(* number of trailing zeros; [x] must be non-zero and fit in 32 bits *)
let ntz x =
  let x = x land -x in
  let n = ref 0 in
  let x = if x land 0xFFFF = 0 then (n := !n + 16; x lsr 16) else x in
  let x = if x land 0xFF = 0 then (n := !n + 8; x lsr 8) else x in
  let x = if x land 0xF = 0 then (n := !n + 4; x lsr 4) else x in
  let x = if x land 0x3 = 0 then (n := !n + 2; x lsr 2) else x in
  if x land 0x1 = 0 then !n + 1 else !n

(* Vector [p] of [slots]: a level-1 slot below [n_slots], a level-2
   bucket from there on. *)
let vec_push t p e =
  let sl = t.slots.(p) in
  if sl.slen = Array.length sl.sarr then begin
    let cap = Stdlib.max 8 (2 * Array.length sl.sarr) in
    let bigger = Array.make cap (sentinel ()) in
    Array.blit sl.sarr 0 bigger 0 sl.slen;
    sl.sarr <- bigger
  end;
  sl.sarr.(sl.slen) <- e;
  e.where <- p;
  e.pos <- sl.slen;
  sl.slen <- sl.slen + 1;
  if p < t.n_slots then begin
    if sl.slen = 1 then bit_set t.occ p;
    t.in_slots <- t.in_slots + 1
  end
  else begin
    if sl.slen = 1 then bit_set t.occ2 (p - t.n_slots);
    t.in_buckets <- t.in_buckets + 1
  end

(* Shorten vector [p] to [len] entries after its tail was moved out,
   keeping the counters and the occupancy bitmap exact. *)
let vec_truncate t p len =
  let sl = t.slots.(p) in
  let removed = sl.slen - len in
  sl.slen <- len;
  if p < t.n_slots then begin
    t.in_slots <- t.in_slots - removed;
    if len = 0 then bit_clear t.occ p
  end
  else begin
    t.in_buckets <- t.in_buckets - removed;
    if len = 0 then bit_clear t.occ2 (p - t.n_slots)
  end

(* Route an entry to its store.  Entries at or before the cursor's slot go
   straight into the current-slot heap (delay-0 schedules, and inserts
   after the clock was advanced by a bounded run); entries within one
   revolution go into their level-1 slot, entries within [n_buckets]
   revolutions into their level-2 bucket; the rest overflow. *)
let place t e =
  if t.n_slots = 0 then pq_push t.over w_over e
  else begin
    let s = e.time asr t.bits in
    if s <= t.cursor then begin
      pq_push t.cur w_cur e;
      if t.cur.plen > t.s_hw_cur then t.s_hw_cur <- t.cur.plen
    end
    else if s - t.cursor <= t.n_slots then vec_push t (s land t.mask) e
    else begin
      let b = s asr t.lg_slots in
      if b - (t.cursor asr t.lg_slots) <= n_buckets then
        vec_push t (t.n_slots + (b land bucket_mask)) e
      else begin
        t.s_overflow <- t.s_overflow + 1;
        pq_push t.over w_over e
      end
    end
  end

let insert t ~time value =
  let e = { time; seq = t.next_seq; value; where = w_out; pos = -1 } in
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  if t.size > t.s_hw_size then t.s_hw_size <- t.size;
  place t e;
  e

let reinsert t (e : 'a handle) ~time =
  if e.where <> w_out then invalid_arg "Wheel.reinsert: handle still queued";
  e.time <- time;
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  if t.size > t.s_hw_size then t.s_hw_size <- t.size;
  place t e

let detach t e =
  match e.where with
  | w when w = w_cur -> ignore (pq_delete t.cur e.pos)
  | w when w = w_over -> ignore (pq_delete t.over e.pos)
  | p ->
      (* p >= 0: swap-remove from the slot or bucket vector *)
      let sl = t.slots.(p) in
      let last = sl.slen - 1 in
      if e.pos <> last then begin
        let moved = sl.sarr.(last) in
        sl.sarr.(e.pos) <- moved;
        moved.pos <- e.pos
      end;
      sl.sarr.(last) <- sentinel ();
      vec_truncate t p last;
      e.where <- w_out;
      e.pos <- -1

let remove t e =
  if e.where = w_out then false
  else begin
    detach t e;
    t.size <- t.size - 1;
    true
  end

let update t e ~time =
  if e.where = w_out then false
  else begin
    detach t e;
    e.time <- time;
    e.seq <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    place t e;
    true
  end

(* Absolute index of the nearest set bit strictly after [base] in a
   circular bitmap of [mask + 1] positions, in absolute (wrapping-physical)
   order; one word read per 32 positions.  Requires a set bit. *)
let next_abs occ mask base =
  let p0 = (base + 1) land mask in
  let words = Array.length occ in
  let w0 = p0 lsr 5 in
  (* a loop over refs, not a local recursive function: no closure *)
  let w = ref w0 and k = ref 0 in
  let m = ref (occ.(w0) land (-1 lsl (p0 land 31))) in
  while !m = 0 do
    incr k;
    if !k > words then invalid_arg "Wheel: occupancy bitmap inconsistent";
    w := (w0 + !k) mod words;
    m := if !k = words then occ.(w0) land lnot (-1 lsl (p0 land 31)) else occ.(!w)
  done;
  base + 1 + (((!w lsl 5) + ntz !m - p0) land mask)

(* Move level-2 bucket [b] (absolute) down a level.  The caller has
   established that no entry lies between the cursor and the bucket's
   first slot, so the cursor may move to just before it; every cascaded
   entry then sits within one revolution and lands in its level-1 slot. *)
let cascade t b =
  t.cursor <- (b lsl t.lg_slots) - 1;
  let p = t.n_slots + (b land bucket_mask) in
  let sl = t.slots.(p) in
  let n = sl.slen in
  for i = 0 to n - 1 do
    let e = sl.sarr.(i) in
    sl.sarr.(i) <- sentinel ();
    vec_push t ((e.time asr t.bits) land t.mask) e
  done;
  vec_truncate t p 0;
  t.s_cascaded <- t.s_cascaded + n

(* Advance the cursor to the minimum occupied slot across all stores and
   move exactly that slot's entries into the current-slot heap.  Level 2
   is consulted only when the level-1/overflow candidate lies past the
   cursor's bucket: before that boundary no level-2 entry can precede it.
   Requires [size > 0] and [cur] empty. *)
let refill t =
  let k_w = ref (if t.in_slots > 0 then next_abs t.occ t.mask t.cursor else max_int) in
  let k_o = if t.over.plen > 0 then t.over.parr.(0).time asr t.bits else max_int in
  if t.in_buckets > 0 then begin
    let here = t.cursor asr t.lg_slots in
    if Stdlib.min !k_w k_o >= (here + 1) lsl t.lg_slots then begin
      let b = next_abs t.occ2 bucket_mask here in
      if b lsl t.lg_slots <= Stdlib.min !k_w k_o then begin
        cascade t b;
        k_w := next_abs t.occ t.mask t.cursor
      end
    end
  end;
  let k_w = !k_w in
  let k = Stdlib.min k_w k_o in
  t.cursor <- k;
  if k = k_w then begin
    let p = k land t.mask in
    let sl = t.slots.(p) in
    let n = sl.slen in
    for i = 0 to n - 1 do
      let e = sl.sarr.(i) in
      sl.sarr.(i) <- sentinel ();
      pq_push t.cur w_cur e
    done;
    vec_truncate t p 0
  end;
  while t.over.plen > 0 && t.over.parr.(0).time asr t.bits <= k do
    let e = pq_delete t.over 0 in
    t.s_migrated <- t.s_migrated + 1;
    pq_push t.cur w_cur e
  done;
  if t.cur.plen > t.s_hw_cur then t.s_hw_cur <- t.cur.plen

let min_handle t =
  if t.size = 0 then invalid_arg "Wheel.min_handle: empty";
  if t.n_slots = 0 then t.over.parr.(0)
  else begin
    if t.cur.plen = 0 then refill t;
    t.cur.parr.(0)
  end

(* With [cur] empty every queued entry lies in a slot after the cursor,
   so a key at or before the cursor's slot precedes them all: no refill,
   which would move the cursor ahead of the caller's clock and route its
   next near-future inserts into [cur]. *)
let precedes_min t ~time ~seq =
  t.size = 0
  || (t.n_slots > 0 && t.cur.plen = 0 && time asr t.bits <= t.cursor)
  ||
  let e = min_handle t in
  time < e.time || (time = e.time && seq < e.seq)

let pop_min t =
  let e = min_handle t in
  detach t e;
  t.size <- t.size - 1;
  e

let mem _t (e : 'a handle) = e.where <> w_out
let detached value = { time = 0; seq = -1; value; where = w_out; pos = -1 }
let handle_time (e : 'a handle) = e.time
let handle_value (e : 'a handle) = e.value
let handle_seq (e : 'a handle) = e.seq
let set_handle_value (e : 'a handle) v = e.value <- v

let filter_in_place t keep =
  pq_filter t.cur keep;
  pq_filter t.over keep;
  for p = 0 to Array.length t.slots - 1 do
    let sl = t.slots.(p) in
    let n = sl.slen in
    if n > 0 then begin
      let kept = ref 0 in
      for i = 0 to n - 1 do
        let e = sl.sarr.(i) in
        if keep e.value then begin
          sl.sarr.(!kept) <- e;
          e.pos <- !kept;
          incr kept
        end
        else begin
          e.pos <- -1;
          e.where <- w_out
        end
      done;
      for i = !kept to n - 1 do
        sl.sarr.(i) <- sentinel ()
      done;
      vec_truncate t p !kept
    end
  done;
  t.size <- t.cur.plen + t.over.plen + t.in_slots + t.in_buckets
