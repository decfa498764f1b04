type t = {
  table : (int, Packet.t -> unit) Hashtbl.t;
  mutable default : (Packet.t -> unit) option;
  mutable no_route : int;
  mutable forwarded : int;
}

let create () = { table = Hashtbl.create 8; default = None; no_route = 0; forwarded = 0 }
let add_route t ~dst out = Hashtbl.replace t.table dst out
let set_default t out = t.default <- Some out

let forward t pkt =
  let dst = pkt.Packet.flow.Addr.dst.Addr.host in
  (* find, not find_opt: a hit allocates no option box per packet *)
  match Hashtbl.find t.table dst with
  | out ->
      t.forwarded <- t.forwarded + 1;
      out pkt
  | exception Not_found -> (
      match t.default with
      | Some out ->
          t.forwarded <- t.forwarded + 1;
          out pkt
      | None -> t.no_route <- t.no_route + 1)

let no_route_drops t = t.no_route
let forwarded t = t.forwarded
