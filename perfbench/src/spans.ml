module Json = Repro_trace.Json

type span = {
  id : int;
  name : string;
  parent : int;
  domain : int;
  request : int;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  lock : Mutex.t;
  mutable closed : span list;
  next : int Atomic.t;
  adopting : int Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    closed = [];
    next = Atomic.make 0;
    adopting = Atomic.make (-1);
  }

(* Open span ids of the current domain, innermost first. *)
let open_spans : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let with_span t ?(adopt = false) ?(request = -1) name f =
  let id = Atomic.fetch_and_add t.next 1 in
  let stack = Domain.DLS.get open_spans in
  let parent = match stack with p :: _ -> p | [] -> Atomic.get t.adopting in
  let prev_adopting = Atomic.get t.adopting in
  if adopt then Atomic.set t.adopting id;
  Domain.DLS.set open_spans (id :: stack);
  let start_ns = Clock.now_ns () in
  Fun.protect f ~finally:(fun () ->
      let stop_ns = Clock.now_ns () in
      Domain.DLS.set open_spans stack;
      if adopt then Atomic.set t.adopting prev_adopting;
      let s =
        {
          id;
          name;
          parent;
          domain = (Domain.self () :> int);
          request;
          start_ns;
          stop_ns;
        }
      in
      Mutex.protect t.lock (fun () -> t.closed <- s :: t.closed))

let spans t =
  Mutex.protect t.lock (fun () ->
      List.sort (fun a b -> compare a.id b.id) t.closed)

let seconds ns = Int64.to_float ns *. 1e-9
let duration s = seconds (Int64.sub s.stop_ns s.start_ns)

let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when Int64.compare a cb <= 0 -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) clipped
  in
  match last with
  | None -> total
  | Some (a, b) -> Int64.add total (Int64.sub b a)

let children_index all =
  let idx = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.add idx c.parent c) all;
  idx

let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (c.start_ns, c.stop_ns) else None)
      all
  in
  seconds
    (Int64.sub
       (Int64.sub s.stop_ns s.start_ns)
       (covered ~lo:s.start_ns ~hi:s.stop_ns children))

let subtree all s =
  let idx = children_index all in
  let rec walk acc s =
    List.fold_left walk (s :: acc) (Hashtbl.find_all idx s.id)
  in
  List.rev (walk [] s)

type total = { calls : int; total_s : float; max_s : float }

let by_name all name =
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        let d = duration s in
        { calls = acc.calls + 1; total_s = acc.total_s +. d; max_s = Float.max acc.max_s d })
    { calls = 0; total_s = 0.0; max_s = 0.0 }
    all

let to_json all =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("parent", Json.Int s.parent);
             ("domain", Json.Int s.domain);
             ("request", Json.Int s.request);
             ("start_ns", Json.String (Int64.to_string s.start_ns));
             ("stop_ns", Json.String (Int64.to_string s.stop_ns));
           ])
       all)
