(* A growable ring: values and their sizes in two parallel arrays, so a
   push writes two cells and allocates nothing once the ring has reached
   its working size.  [values] is always made with an immediate filler,
   never with a float, so it is never a flat float array and a ['a] of
   any type, float included, is stored boxed in it.  Both arrays start
   empty: a simulated topology builds a queue per link and router port,
   and many of them never hold a packet. *)
type 'a t = {
  mutable values : 'a array; (* capacity 0 or a power of two *)
  mutable sizes : int array;
  mutable head : int;
  mutable len : int;
  mutable bytes : int;
}

let hole () : 'a = Obj.magic 0
let create () = { values = [||]; sizes = [||]; head = 0; len = 0; bytes = 0 }
let slot t i = (t.head + i) land (Array.length t.values - 1)

let grow t =
  let cap = Stdlib.max 8 (2 * Array.length t.values) in
  let values = Array.make cap (hole ()) and sizes = Array.make cap 0 in
  for i = 0 to t.len - 1 do
    values.(i) <- t.values.(slot t i);
    sizes.(i) <- t.sizes.(slot t i)
  done;
  t.values <- values;
  t.sizes <- sizes;
  t.head <- 0

let push t ~size value =
  if t.len = Array.length t.values then grow t;
  let i = slot t t.len in
  t.values.(i) <- value;
  t.sizes.(i) <- size;
  t.len <- t.len + 1;
  t.bytes <- t.bytes + size

(* Unlink the head; the caller has checked [len > 0]. *)
let take t =
  let i = t.head in
  let v = t.values.(i) in
  t.values.(i) <- hole ();
  t.bytes <- t.bytes - t.sizes.(i);
  t.head <- (i + 1) land (Array.length t.values - 1);
  t.len <- t.len - 1;
  v

let pop t = if t.len = 0 then None else Some (take t)
let peek t = if t.len = 0 then None else Some t.values.(t.head)

let drop_head t =
  if t.len = 0 then None
  else begin
    let size = t.sizes.(t.head) in
    Some (take t, size)
  end

let length t = t.len
let bytes t = t.bytes
let is_empty t = t.len = 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.values.(slot t i)
  done

let clear t =
  Array.fill t.values 0 (Array.length t.values) (hole ());
  t.head <- 0;
  t.len <- 0;
  t.bytes <- 0
